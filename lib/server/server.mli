(** The Hercules design-server daemon.

    One process owns a journaled design database
    ({!Ddf_journal.Journal}) and serves the {!Ddf_wire.Wire} protocol
    over a Unix-domain socket.  Each connection gets a reader thread
    and its own {!Ddf_session.Session} (task window, flow catalog,
    selections) over the one shared engine context; store/history
    mutations are group-committed by whichever submitter finds no
    commit running (there is no writer thread), and each group commit
    publishes an immutable store+history snapshot
    ({!Ddf_exec.Engine.view}).  Pure reads — single requests and pure-read
    batches alike — evaluate against the latest published view and
    take {e no} lock: with [read_domains > 0] they are dispatched to
    a pool of OCaml 5 worker domains and scale across cores, with
    [read_domains = 0] (the default) they run inline on the
    connection thread, equally lock-free.  The only remaining lock on
    the commit path is the commit lock, instrumented as the
    [server.lock_acquisitions] counter — flat under read-only load,
    which the test suite asserts.  Every request is traced as a
    [server.dispatch] span (lane = connection id) carrying
    [server.request] timing, joined to the client's distributed trace
    when the frame header carried a trace token, and counted in the
    metrics registry; queue wait, write job, group-commit fsync and
    follower applies appear as child spans of the same trace.  The
    [Metrics] wire verb exposes the registry (with p50/p90/p99
    histogram quantiles) to remote clients.

    Robustness: the write queue and the read pool are one bounded
    executor.  At most [max_queue] mutations wait for a commit;
    excess writes are shed with a typed [`Overloaded] error carrying
    a retry-after hint, {e before} any work (or journaling) happens.
    Pool reads are never shed: at most [max_clients] connections are
    admitted, each with one request in flight, so at most that many
    reads wait for a worker domain.  Requests carry a deadline budget
    in the frame header (or inherit [default_deadline]); a request
    whose budget expires before dispatch or while it waits is shed
    with [`Timeout] — again never executed, so resending is safe.  Graceful shutdown stops admitting, lets
    in-flight requests finish (bounded by [drain_grace]), drains the
    write queue and the read pool, closes the connections and fsyncs the
    journal; {!stop} and {!wait} are idempotent. *)

exception Server_error of string

type t

val start :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?seed:(Ddf_exec.Engine.context -> unit) ->
  ?follow:string ->
  ?max_clients:int ->
  ?request_timeout:float ->
  ?max_queue:int ->
  ?default_deadline:float ->
  ?read_domains:int ->
  ?drain_grace:float ->
  ?compact_every:int ->
  ?sync_mode:Ddf_journal.Journal.sync_mode ->
  ?slow_log:float ->
  db:string -> socket:string -> Ddf_schema.Schema.t -> t
(** Open (or create) the database under [db], bind [socket] and start
    accepting.  [seed] runs once — journaled — when the database is
    empty (the CLI installs the standard tool catalog there).
    [max_clients] (default 64) bounds concurrent connections;
    [request_timeout] (default 30s) caps a mutation's deadline at
    admission: a mutation that waits longer in the write queue is
    answered [`Timeout] at dequeue, never run, by the same check as
    an expired deadline (both count into [server.deadline_missed]).

    [max_queue] (default 256) bounds the write queue: a mutation
    arriving when it is full is refused with [`Overloaded] and a
    retry-after hint derived from the commits' recent service rate.
    [read_domains] (default 0) sets the size of the read pool: with
    [N > 0], pure reads are evaluated on [N] OCaml 5 worker domains,
    each pinning the latest published store+history view, so read
    throughput scales across cores; the pool's queue has no bound
    (it never holds more than [max_clients] reads) and its wait is
    the [server.read_queue_wait_us] histogram.  With [0] reads run
    inline on the connection threads — in both modes the read path
    acquires no server lock.  [default_deadline] (seconds) gives
    every request from a peer that sent no deadline header an
    implicit budget; [drain_grace] (default 5s) is how long {!stop}
    lets in-flight requests finish before severing their
    connections.

    [slow_log] (seconds) turns on the slow-request log: any request
    whose service time exceeds the threshold is reported on stderr
    with its operation, user, duration and — when tracing — its trace
    token, and counted in [server.slow_requests].

    [sync_mode] (default [Group]) sets the journal durability policy.
    Under [Group] the submitter that finds no commit running commits
    every queued mutation as one group, on its own thread, and fsyncs
    once per group {e before} acknowledging any job in it: every [Ok]
    a client sees is durable, but concurrent writers share one fsync.  [Always] fsyncs inside every append;
    [Never] never fsyncs (replay-only / bench scaffolding).

    [follow] makes this daemon a replication follower of the primary
    listening on that socket: it subscribes to the primary's journal
    stream, applies every entry through its own (crash-safe) journal,
    serves the whole read surface locally and rejects writes; [seed]
    is ignored (state comes from the stream).  The connection is kept
    alive with bounded exponential backoff, and a follower whose
    journal predates the primary's snapshot resyncs from a fresh
    snapshot automatically.
    @raise Server_error when the socket cannot be bound. *)

val context : t -> Ddf_exec.Engine.context
(** The shared engine context.  Not synchronized: use it only before
    serving traffic or after {!wait} returns. *)

val role : t -> string
(** ["primary"] or ["follower"] — also reported in [Stat]. *)

val promote : t -> unit
(** Follower failover: stop following and start accepting writes.  The
    local journal holds a byte-identical prefix of the primary's log,
    so new writes continue the same history.  No-op on a primary. *)

val stop : t -> unit
(** Initiate graceful shutdown (idempotent): stop accepting, unblock
    readers, drain the write queue, fsync and close the journal. *)

val wait : t -> unit
(** Block until the server has fully shut down. *)

val run :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?seed:(Ddf_exec.Engine.context -> unit) ->
  ?follow:string ->
  ?max_clients:int ->
  ?request_timeout:float ->
  ?max_queue:int ->
  ?default_deadline:float ->
  ?read_domains:int ->
  ?drain_grace:float ->
  ?compact_every:int ->
  ?sync_mode:Ddf_journal.Journal.sync_mode ->
  ?slow_log:float ->
  db:string -> socket:string -> Ddf_schema.Schema.t -> unit
(** {!start}, shut down on SIGINT/SIGTERM (or a [Shutdown] request),
    {!wait}. *)
