(** The Hercules design-server wire protocol.

    One framing carries every message in both directions, the hello
    included: a fixed header — [0xd8] magic, a flags byte, a u32-LE
    body length, then the flagged optional fields — followed by a
    tag-byte-dispatched body of fixed-width ints and length-delimited
    strings.  The optional header fields are the sender's remaining
    deadline budget in milliseconds (how long it is still willing to
    wait for the answer; the server sheds requests it cannot start in
    time) and a trace context ({!Ddf_obs.Obs.span_ctx_to_token})
    linking the receiver's spans into the sender's distributed trace.
    Design-object values, journal frames and snapshot chunks ride as
    opaque length-delimited byte slices the codec never re-encodes.

    The request surface mirrors {!Ddf_session.Session}: catalog
    queries, task-window construction (expand / specialize / select),
    execution, history queries and consistency refresh — plus
    auth-lite client identity ([Hello]) that the server maps onto
    [Store.meta.user] for every mutation the client performs. *)

exception Wire_error of string

type iid = Ddf_store.Store.iid

val protocol_version : int
(** The one protocol version this build speaks (9).  The [Hello]
    handshake carries the client's version, and a server refuses any
    other with a typed error before serving anything else.  A frame
    that does not start with the binary magic — such as the
    ["ddf1 <len>"] s-expression frame of a v8-or-older peer — is
    answered with one typed [`Invalid] error naming this version, and
    the connection is closed. *)

val snapshot_chunk_bytes : int
(** Chunk size of a streamed snapshot (both the [Subscribe] resync and
    [Snapshot_export] paths): the most snapshot data either peer holds
    in memory at once, per frame. *)

type catalog = Entities | Tools | Flows

type request =
  | Hello of { user : string; version : int }
      (** client identity (user) + protocol version *)
  | Ping
  | Stat
  | Catalog of catalog
  | Browse of Ddf_store.Store.filter     (** whole-store browse *)
  | Install of {
      entity : string;
      label : string;
      keywords : string list;
      value : Ddf_persist.Sexp.t;        (** {!Ddf_persist.Codec} form *)
    }
  | Annotate of {
      iid : iid;
      label : string option;
      comment : string option;
      keywords : string list option;
    }
  | Start_goal of string
  | Start_data of iid
  | Expand of int
  | Specialize of int * string
  | Select of int * iid list
  | Node_browse of int * Ddf_store.Store.filter
  | Leaves                               (** current flow's leaves *)
  | Run of int
  | Render                               (** ASCII task window *)
  | Recall of iid
  | Trace of iid                         (** derivation trace, rendered *)
  | Uses of iid
  | Refresh of iid                       (** [Consistency.refresh] *)
  | Save_flow of string
  | Load_flow of string
  | Shutdown
  | Subscribe of int
      (** follower → primary: stream me every journal entry with seqno
          greater than this (0 = from the beginning).  The connection
          switches into replication mode: the server answers with an
          optional streamed snapshot ([Ok_snapshot_begin], chunks,
          [Ok_snapshot_end]) followed by an unbounded stream of
          [Ok_frame]s, and reads only [Repl_ack]s from then on. *)
  | Repl_ack of int                      (** follower → primary: applied
                                             through this seqno (no
                                             response) *)
  | Lag                                  (** per-follower replication lag *)
  | Compact                              (** admin: fold the journal into
                                             a fresh snapshot now *)
  | Metrics                              (** the server's metrics registry
                                             snapshot *)
  | Sync_digest
      (** anti-entropy handshake: the server's workspace id, journal
          base/seq, wal digest (seqno → frame md5), per-origin applied
          cursors and canonical state fingerprint — everything a peer
          needs to locate the common prefix and resume a sync *)
  | Sync_frames of { after : int; limit : int }
      (** pull at most [limit] wal frames with seqno > [after] *)
  | Sync_ack of { origin : string; upto : int; frames : (int * string * string) list }
      (** deliver a batch of [origin]'s frames [(seqno, md5,
          payload)] for application through the group commit and
          advance the persisted origin cursor to [upto]; an empty
          batch just acknowledges.  This is the push half of a sync
          round — a mutation. *)
  | Conflicts                            (** the sync-conflict registry *)
  | Resolve of { conflict : int; winner : iid }
      (** pick the winning version of a surfaced conflict *)
  | Snapshot_export
      (** compact, then stream the on-disk snapshot back as
          [Ok_snapshot_begin], [Ok_snapshot_chunk]s and
          [Ok_snapshot_end] — the bounded-memory bootstrap/backup
          verb.  Handled at connection level (like [Subscribe]). *)
  | Batch of request list
      (** a pipeline: the requests run in order and are answered
          positionally by one [Ok_batch] — one frame each way.  An
          inner failure yields an [Error] at its position and
          execution continues (journaled effects of earlier members
          are not rolled back).  A batch containing a mutation runs as
          one writer job, so its writes group-commit together.  A
          batch inside a batch is answered with a positional error;
          a frame nesting deeper does not decode. *)

type stat = {
  st_role : string;                      (** "primary" or "follower" *)
  st_seq : int;                          (** last journaled seqno *)
  st_clock : int;
  st_instances : int;
  st_records : int;
  st_store_tick : int;
  st_history_tick : int;
  st_uptime_s : float;
}

type instance_row = {
  row_iid : iid;
  row_entity : string;
  row_meta : Ddf_store.Store.meta;
}

type lag_row = {
  lag_follower : string;                 (** follower identity (hello user) *)
  lag_acked : int;                       (** last seqno it acknowledged *)
  lag_sent : int;                        (** last seqno sent to it *)
}

type conflict_row = {
  cf_id : int;
  cf_base : iid;                         (** the version both sides edited *)
  cf_ours : iid;                         (** the local alternative *)
  cf_theirs : iid;                       (** the synced-in alternative *)
  cf_origin : string;                    (** wsid the remote branch came from *)
  cf_at : int;
  cf_winner : iid option;                (** [None] until resolved *)
}

type sync_stats = {
  sy_applied : int;    (** frames whose effects were new here *)
  sy_skipped : int;    (** frames deduplicated as already present *)
  sy_conflicts : int;  (** divergences registered while applying *)
  sy_cursor : int;     (** origin seqno applied through, persisted *)
}

type response =
  | Ok_unit
  | Ok_int of int                        (** fresh node / instance id *)
  | Ok_ints of int list                  (** node or instance ids *)
  | Ok_atoms of string list              (** catalog names *)
  | Ok_text of string                    (** rendered window / trace *)
  | Ok_nodes of (int * string) list      (** node id, entity *)
  | Ok_rows of instance_row list
  | Ok_stat of stat
  | Ok_refresh of { fresh : iid; reran : int; reused : int }
  | Ok_snapshot_begin of { seq : int; bytes : int }
      (** a streamed snapshot follows — [bytes] of workspace save
          taken at [seq], chunked in {!snapshot_chunk_bytes} pieces *)
  | Ok_snapshot_chunk of { data : string }
  | Ok_snapshot_end of { digest : string }
      (** end of stream; [digest] is md5 hex over the whole
          reassembled snapshot *)
  | Ok_frame of { seq : int; payload : string; digest : string }
      (** one journal entry; [digest] is the md5 hex of [payload], the
          same checksum the on-disk frame carries *)
  | Ok_lags of { primary_seq : int; rows : lag_row list }
  | Ok_metrics of Ddf_obs.Metrics.metric list
      (** the server's metrics snapshot; histogram stats travel as hex
          floats so they round-trip exactly *)
  | Ok_digest of {
      wsid : string;
      base : int;
      seq : int;
      fingerprint : string;
          (** canonical identity-independent state digest: two peers
              whose fingerprints agree hold the same design state even
              though their iids may differ *)
      cursors : (string * int) list;     (** origin wsid → applied seqno *)
      entries : (int * string) list;     (** seqno → frame md5, ascending *)
    }
  | Ok_frames of (int * string * string) list
      (** [(seqno, md5, payload)] — answers [Sync_frames] *)
  | Ok_sync of sync_stats                (** answers [Sync_ack] *)
  | Ok_conflicts of conflict_row list
  | Ok_batch of response list            (** positional answers to [Batch] *)
  | Error of Ddf_core.Error.t
      (** [retryable] is the server's assertion that the request was
          {e not executed}, so resending cannot double-apply;
          [retry_after] is its backoff hint in seconds. *)

(** {1 The [remote batch] text language}

    Not a transport: [hercules remote batch] reads one request
    s-expression per stdin line and prints each answer as one. *)

val request_of_sexp : Ddf_persist.Sexp.t -> request
(** @raise Wire_error on malformed input. *)

val response_to_sexp : response -> Ddf_persist.Sexp.t

val hello : string -> request
(** This build's [Hello] for [user]. *)

val request_name : request -> string
(** Stable short name for tracing and metrics ("run", "browse", ...). *)

val is_mutation : request -> bool
(** Must the request go through the server's group commit?
    Session-window operations (expand/select/...) mutate only the
    per-connection session and count as reads of the shared store. *)

(** {1 The binary codec} *)

val request_to_binary_string : request -> string
val request_of_binary_string : string -> request
val response_to_binary_string : response -> string
val response_of_binary_string : string -> response
(** The codec as plain strings (frame body only, no header) — the
    property-test and bench surface; the socket paths below keep the
    gathered iovec form.  Decoders
    @raise Wire_error on malformed input, including trailing bytes
    and batches nested more than one level deep. *)

val meta : Ddf_store.Store.meta Layout.fld
(** An instance's meta-data as a browse row carries it; the journal's
    put and note entries reuse it. *)

(** {1 Framed socket I/O}

    Each call observes the [wire.encode_seconds] /
    [wire.decode_seconds] histograms and the [wire.bytes_out] /
    [wire.bytes_in] counters. *)

type frame_meta = {
  fm_deadline_ms : int option;   (** peer's remaining budget, ms *)
  fm_trace : Ddf_obs.Obs.span_ctx option;  (** peer's span context *)
  fm_decode_words : float;
      (** the words the body's decode allocated
          ({!Ddf_obs.Metrics.with_alloc_words}) *)
}

val send_request :
  ?deadline_ms:int -> ?trace:Ddf_obs.Obs.span_ctx ->
  Unix.file_descr -> request -> unit
(** Write one request frame; [deadline_ms] puts the sender's remaining
    budget in the header, [trace] its span context.
    @raise Wire_error on a closed peer. *)

val send_response :
  ?deadline_ms:int -> ?trace:Ddf_obs.Obs.span_ctx ->
  Unix.file_descr -> response -> unit

val send_response_batch :
  Unix.file_descr -> (response * Ddf_obs.Obs.span_ctx option) list -> unit
(** Flush a whole group of response frames (each with its own trace
    context) as {e one} gathered kernel write — the replication
    outbox's group-commit fan-out.  Large payload bodies are carried
    as borrowed slices, never concatenated on the OCaml side. *)

val recv_request : Unix.file_descr -> (request * frame_meta) option
(** Read and decode one request; [None] on clean end-of-stream.
    @raise Wire_error on framing or decode violations. *)

val recv_response : Unix.file_descr -> (response * frame_meta) option

val receive_snapshot :
  recv:(unit -> response) ->
  bytes:int ->
  string ->
  (unit, [ `Short of int | `Bad_digest | `Stopped of response ]) result
(** [receive_snapshot ~recv ~bytes path] reads a streamed snapshot
    after its [Ok_snapshot_begin { bytes; _ }]: each [Ok_snapshot_chunk]
    [recv] returns is written to [path] (created or truncated), one
    chunk in memory at a time, until [Ok_snapshot_end].  [`Short n]
    when only [n] bytes arrived, [`Bad_digest] when the file fails the
    end frame's md5, [`Stopped resp] on any other response.  [path] is
    removed unless the answer is [Ok ()], also when [recv] raises (as it
    should when the stream breaks); the exception propagates. *)
