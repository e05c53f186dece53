(** Journal-shipping replication transport.

    A primary design server streams its {!Ddf_journal.Journal} to
    follower daemons: each follower receives an optional streamed
    full-state snapshot followed by every journal entry, tagged with
    its global sequence number and md5 digest, and applies them
    through its own
    journal — so a caught-up follower's database (store, history,
    meta-data, logical clock, and on-disk wal suffix) is identical to
    the primary's, and the follower is itself crash-safe and
    promotable.

    This module is transport only: {!Feed} is the follower's
    subscription socket, {!Outbox} the primary's per-follower send
    queue, {!Follower} the reconnect-with-backoff driver.  The policy
    ends — what to do with a frame — live in {!Ddf_server.Server}
    (primary fan-out, follower apply) so this library depends only on
    the wire protocol. *)

exception Replica_error of string

val stream_snapshot :
  send:(Ddf_wire.Wire.response -> unit) -> seq:int -> Unix.file_descr -> unit
(** Stream a snapshot file descriptor as [Ok_snapshot_begin], then
    {!Ddf_wire.Wire.snapshot_chunk_bytes}-sized [Ok_snapshot_chunk]s,
    then [Ok_snapshot_end] (md5 over the whole file).  Open the
    descriptor with the writer excluded — it pins the snapshot inode
    against later compaction renames.  Holds at most one chunk in
    memory; closes the descriptor; counts [replica.snapshots_streamed].
    [send] must raise to abort the stream (the exception propagates). *)

(** The follower's end of a replication stream. *)
module Feed : sig
  type t

  type event =
    | Snapshot_file of { seq : int; path : string }
        (** full workspace state as of [seq], replacing everything: a
            streamed snapshot reassembled (byte count and digest
            verified) into a spool file the consumer owns, never held
            as one in-memory string *)
    | Frame of {
        seq : int;
        payload : string;
        trace : Ddf_obs.Obs.span_ctx option;
            (** the primary-side span of the write that produced the
                frame, when the primary was tracing *)
      }  (** one journal entry (digest already verified) *)

  val connect :
    ?user:string -> spool:string -> socket:string -> since:int -> unit -> t
  (** Dial the primary, handshake ([Hello] with this build's protocol
      version) and send [Subscribe since].  [spool] is the directory
      streamed snapshots are reassembled in: the database's directory,
      or another on its filesystem, so that
      {!Ddf_journal.Journal.reset_to_snapshot_file} can rename the
      spool file into place.
      @raise Replica_error on connection refusal, a version mismatch,
      or any transport failure. *)

  val next : t -> event
  (** Block for the next stream event.  Verifies each frame's digest.
      @raise Replica_error on end-of-stream, checksum failure or a
      protocol violation. *)

  val ack : t -> int -> unit
  (** Tell the primary we have durably applied through [seq].  Send
      failures are ignored — the stream read will fail soon after. *)

  val close : t -> unit
end

(** The primary's send side of one replication connection: a bounded
    queue drained by a private sender thread, so the engine's writer
    loop never blocks on a slow follower.  A follower more than [cap]
    frames behind is evicted (its socket shut down); on reconnect it
    lands on the normal catch-up path. *)
module Outbox : sig
  type t

  val create : ?cap:int -> name:string -> Unix.file_descr -> t
  (** [cap] defaults to 65536 queued messages.  The sender thread
      drains each contiguous run of queued responses and flushes it as
      {e one} gathered write. *)

  val name : t -> string
  val push : ?trace:Ddf_obs.Obs.span_ctx -> t -> Ddf_wire.Wire.response -> unit
  (** Enqueue; silently drops when the outbox is dead.  [Ok_frame]
      updates the sent-seqno watermark.  [trace] rides
      the frame header so the follower's apply span joins the
      producing write's trace. *)

  val push_snapshot_fd : t -> seq:int -> Unix.file_descr -> unit
  (** Enqueue a snapshot descriptor, holding exactly the state at
      [seq], to be streamed as begin/chunk/end frames
      ({!stream_snapshot}).  The outbox takes ownership of [fd]: it is
      closed after streaming, or at once when the outbox is dead. *)

  val note_ack : t -> int -> unit
  val sent : t -> int    (** highest seqno enqueued *)

  val acked : t -> int   (** highest seqno acknowledged *)

  val alive : t -> bool
  val close : t -> unit
  (** Stop the sender thread and shut the socket down (the connection
      loop still owns the descriptor's close). *)
end

(** A background thread keeping one replication stream alive:
    reconnects with bounded exponential backoff (50ms doubling to 2s),
    resubscribes from [current_seq ()], and feeds every event to the
    [apply]/[reset_file] hooks.  The hooks run on the follower thread and
    must raise on failure — the driver then drops the connection and
    retries, which restarts catch-up cleanly. *)
module Follower : sig
  type t

  val start :
    ?name:string ->
    spool:string ->
    primary:string ->
    current_seq:(unit -> int) ->
    apply:(trace:Ddf_obs.Obs.span_ctx option -> seq:int -> string -> unit) ->
    reset_file:(seq:int -> string -> unit) ->
    ?on_error:(string -> unit) ->
    unit -> t
  (** [spool] is where streamed snapshots are reassembled, as for
      {!Feed.connect}.
      [reset_file] handles a {!Feed.Snapshot_file} event — typically
      {!Ddf_journal.Journal.reset_to_snapshot_file}, which consumes the
      spool file; the driver removes whatever the hook leaves behind. *)

  val primary : t -> string

  val stop : t -> unit
  (** Interrupt the stream and join the thread.  Idempotent; after
      [stop] the local database stops tracking the primary — the
      promotion hook. *)
end
