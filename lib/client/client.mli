(** Typed client for the Hercules design-server.

    Wraps one Unix-domain socket connection to a {!Ddf_server.Server}
    daemon.  Every call sends one {!Ddf_wire.Wire.request} and blocks
    for its response; failures carry a typed {!Ddf_core.Error.t}.  A
    client is not thread-safe — give each thread its own connection,
    as the server gives each connection its own session (task window,
    flow catalog, selections).

    Failure handling is classified, not blind.  With [retries > 0] a
    call resends only when resending cannot double-apply: after a
    send-phase transport failure (the server never saw a complete
    frame), after any failure of a {e read}, or after a server error
    with [retryable = true] — the server's assertion that the request
    was not executed (shed under overload, expired in the queue),
    whose [retry_after] hint floors the backoff.  A {e mutation} whose
    transport dies after the request was fully sent raises
    [`Ambiguous_commit]: it may or may not have committed, and the
    caller must reconcile (re-read, then decide) instead of resending.
    Retries are counted in [client.retries], ambiguous outcomes in
    [client.ambiguous_commits].

    When {!Ddf_obs.Obs} tracing is on, every call is a
    [client.request] span with one [client.attempt] child per wire
    exchange; the attempt's span context rides the frame header, so
    the server's dispatch (and its queue/fsync/follower child spans)
    join this client's trace.  Retries appear as [client.retry]
    instants between attempts.

    Server-side errors, protocol violations and transport failures all
    raise {!Ddf_core.Error.Ddf_error}; use {!Ddf_core.Error.message}
    for the text and the [code] for routing. *)

type t

val connect :
  ?user:string -> ?timeout:float -> ?retries:int -> ?deadline:float ->
  socket:string -> unit -> t
(** Connect to the daemon listening on [socket] and introduce
    ourselves as [user] (default ["anonymous"]); the server stamps
    that identity on every instance and history record this
    connection creates; a server of another protocol version refuses
    the handshake with a final typed error.

    [timeout] bounds each attempt's wait for a response (seconds); on
    expiry the connection is dropped, to be redialed on the next call.
    [retries] (default 0: fail fast) bounds classified resends with
    exponential backoff (50ms doubling to 1s).  [deadline] gives
    every call a total budget in seconds: the remaining budget is
    sent in each frame header so the server can shed requests the
    client has given up on, and retries stop when it is spent. *)

val close : t -> unit
(** Close the connection (idempotent). *)

val closed : t -> bool

val with_client :
  ?user:string -> ?timeout:float -> ?retries:int -> ?deadline:float ->
  socket:string -> (t -> 'a) -> 'a
(** [connect], run, [close] — also on exception. *)

val user : t -> string

(** {1 The session surface} *)

val ping : t -> unit
val stat : t -> Ddf_wire.Wire.stat

val catalog : t -> Ddf_wire.Wire.catalog -> string list
(** Entity, tool or flow names known to this connection's session. *)

val browse : t -> Ddf_store.Store.filter -> Ddf_wire.Wire.instance_row list
(** Whole-store browse; rows carry entity and metadata so the client
    can render them without further round trips. *)

val install :
  t ->
  entity:string ->
  ?label:string ->
  ?keywords:string list ->
  Ddf_persist.Sexp.t ->
  Ddf_store.Store.iid
(** Install a value (in {!Ddf_persist.Codec} form) as a new instance. *)

val annotate :
  t ->
  ?label:string ->
  ?comment:string ->
  ?keywords:string list ->
  Ddf_store.Store.iid ->
  unit

val start_goal : t -> string -> int
(** Start a goal-based flow; returns the root node id. *)

val start_data : t -> Ddf_store.Store.iid -> int
(** Start a data-based flow from an existing instance. *)

val expand : t -> int -> (int * string) list
(** Expand a node; returns the fresh (node id, entity) pairs. *)

val specialize : t -> int -> string -> unit
val select : t -> int -> Ddf_store.Store.iid list -> unit
val node_browse : t -> int -> Ddf_store.Store.filter -> Ddf_store.Store.iid list
val leaves : t -> (int * string) list
val run : t -> int -> Ddf_store.Store.iid list
val render : t -> string
val recall : t -> Ddf_store.Store.iid -> int
val trace : t -> Ddf_store.Store.iid -> string
val uses : t -> Ddf_store.Store.iid -> Ddf_store.Store.iid list

val refresh : t -> Ddf_store.Store.iid -> Ddf_store.Store.iid * int * int
(** [Consistency.refresh]: the fresh instance, tasks re-run, tasks
    reused. *)

val save_flow : t -> string -> unit
val load_flow : t -> string -> int list

(** {1 Result-typed variants}

    [ping], [install] and [trace] returning [(value, Ddf_core.Error.t)
    result] instead of raising — for callers that route on the error
    code (retry orchestration, readiness probes) without exception
    handlers. *)

val ping_r : t -> (unit, Ddf_core.Error.t) result

val install_r :
  t ->
  entity:string ->
  ?label:string ->
  ?keywords:string list ->
  Ddf_persist.Sexp.t ->
  (Ddf_store.Store.iid, Ddf_core.Error.t) result

val trace_r : t -> Ddf_store.Store.iid -> (string, Ddf_core.Error.t) result

(** {1 Administration} *)

val lag : t -> int * Ddf_wire.Wire.lag_row list
(** Replication lag as seen by this server: its own journal seqno and
    one row per subscribed follower (acked / sent watermarks). *)

val compact : t -> unit
(** Ask the daemon to fold its journal into a fresh snapshot now. *)

val metrics : t -> Ddf_obs.Metrics.metric list
(** The server's metrics registry snapshot: counters, gauges and
    histograms with p50/p90/p99 quantiles — the payload behind
    [hercules remote metrics] and [hercules top]. *)

val snapshot_export : t -> out:string -> int * int
(** Ask the daemon to compact and stream its snapshot back in bounded
    chunks.  The stream is spooled to [out ^ ".tmp"],
    verified against its digest and byte count, and renamed to [out];
    at no point does the snapshot exist as one in-memory string.
    Returns [(seq, bytes)] — the seqno the snapshot covers and its
    size.  Never retried (the server compacts first, a mutation).
    @raise Ddf_core.Error.Ddf_error on refusal or a corrupt/short
    stream. *)

val batch : t -> Ddf_wire.Wire.request list -> Ddf_wire.Wire.response list
(** Pipeline: send the requests as one [Batch] frame and return their
    responses positionally (always the same length as the input).  The
    server executes them in order; an inner failure is an [Error] at
    its position and execution continues — effects of earlier members
    are not rolled back.  A batch containing a mutation runs as one
    writer job, so its writes share one group commit (and one fsync).
    @raise Ddf_core.Error.Ddf_error on a top-level refusal (e.g. a read-only
    follower rejecting a mutating batch) or a length mismatch. *)

val shutdown : t -> unit
(** Ask the daemon to shut down gracefully, then close this
    connection (idempotent: a no-op on a closed client). *)

(** {1 Anti-entropy sync}

    The raw verbs {!Ddf_sync.Sync} drives: a digest handshake, frame
    pulls, and frame pushes.  Useful directly for diagnostics
    ([hercules remote digest]); for an actual reconciliation use
    {!Ddf_sync.Sync.run}, which sequences them into bounded rounds. *)

val sync_digest :
  t ->
  string * int * int * string * (string * int) list * (int * string) list
(** The server's anti-entropy digest:
    [(wsid, base, seq, fingerprint, cursors, entries)] — see
    {!Ddf_wire.Wire.response}. *)

val sync_frames :
  t -> after:int -> limit:int -> (int * string * string) list
(** At most [limit] of the server's wal frames with seqno > [after],
    as [(seqno, md5, payload)]. *)

val sync_push :
  t ->
  origin:string ->
  upto:int ->
  (int * string * string) list ->
  Ddf_wire.Wire.sync_stats
(** Deliver a batch of [origin]'s frames for application and advance
    the server's persisted cursor for that origin to [upto].  An empty
    batch just moves the cursor. *)

val conflicts : t -> Ddf_wire.Wire.conflict_row list
(** The server's sync-conflict registry, resolved entries included. *)

val resolve : t -> conflict:int -> winner:Ddf_store.Store.iid -> unit
(** Pick the winning version of a surfaced conflict; [winner] must be
    the conflict's base, ours or theirs instance. *)

(** {1 Escape hatch} *)

val call : t -> Ddf_wire.Wire.request -> Ddf_wire.Wire.response
(** Raw request/response; [Error] responses are returned, not raised
    (though retryable ones are resent first when [retries > 0]).
    @raise Ddf_core.Error.Ddf_error on a dropped connection. *)

(** {1 Read/write splitting over a replica set}

    A {!Pool.pool} watches a set of endpoints — one primary and any
    number of followers — classifying each by the role its [stat]
    reports.  {!Pool.read} round-robins over live followers (read
    scaling), {!Pool.write} targets the primary.  A write failing
    with [`Unavailable] re-probes the set and retries once (the code
    asserts the request never executed), so a promoted follower is
    adopted without restarting the client; an [`Ambiguous_commit] is
    never resent.  When no primary is reachable the pool degrades:
    reads keep flowing to followers (counted in
    [pool.degraded_reads]) while writes fail fast, until a re-probe
    finds a primary again.  Like a single client, a pool is not
    thread-safe: one per thread. *)

module Pool : sig
  type pool

  val connect :
    ?user:string -> ?timeout:float -> ?deadline:float -> string list -> pool
  (** Probe every endpoint (sockets); unreachable ones stay in the set
      and are re-probed on failover.  [timeout] and [deadline] apply
      to every member connection. *)

  val endpoints : pool -> (string * string) list
  (** [(socket, role)] per member; role is ["primary"], ["follower"]
      or ["down"]. *)

  val degraded : pool -> bool
  (** No reachable primary: the pool serves follower reads only. *)

  val read : pool -> (t -> 'a) -> 'a
  (** Run a read on a live follower (round-robin), falling back to the
      primary when no follower is up.  A member that stops answering
      is marked down and the read moves on; a server error from a
      live member is raised as the answer.
      @raise Ddf_core.Error.Ddf_error when no endpoint can serve. *)

  val write : pool -> (t -> 'a) -> 'a
  (** Run a write on the primary; on [`Unavailable] — and only then —
      re-probe everything once to find a promoted follower and retry.
      @raise Ddf_core.Error.Ddf_error when no writable endpoint exists
      ([`Unavailable], and the pool is marked degraded). *)

  val batch :
    pool -> Ddf_wire.Wire.request list -> Ddf_wire.Wire.response list
  (** One pipeline frame, routed to the primary iff any member is a
      mutation (a follower would reject it), to a follower otherwise. *)

  val close : pool -> unit
end
