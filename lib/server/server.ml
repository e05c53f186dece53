(* The Hercules design-server daemon.

   Concurrency model (MVCC): one reader thread per connection, one
   writer thread for the engine, an optional pool of reader DOMAINS.
   Store/history mutations (install, annotate, run, refresh) are
   enqueued as jobs and applied by the writer in arrival order — a
   single serialization point, so the design history is trivially
   serializable and the journal records one total order.  After each
   group commit the writer atomically publishes a pinned
   store+history snapshot ([published]); pure reads (catalogs,
   browsing, task-window editing, history queries) evaluate against
   that frozen view and never synchronize with the writer at all — no
   read lock, no gate, nothing to contend on.  The only lock left on
   the commit path is the (vestigial, single-threaded) writer commit
   lock, instrumented with [server.lock_acquisitions] precisely so
   tests can assert the counter stays flat under read-only load.

   With [read_domains > 0] pure reads are dispatched to a pool of
   worker domains that pin the latest published view per request (or
   per pure-read batch), so reads scale across cores while the writer
   keeps committing.  [read_domains = 0] (the default) evaluates them
   inline on the connection thread — still lock-free.

   Each connection owns a private Session over the shared context, so
   concurrent designers build flows independently while sharing one
   store, history and clock — the paper's multi-designer Hercules
   database.  A connection serves one request at a time, so handing
   its session to a pool domain is race-free.  Client identity
   arrives via Hello and is rebound onto ctx.user by the writer
   before each mutation, so Store.meta.user reflects the requesting
   designer. *)

open Ddf_store
open Ddf_history
module Wire = Ddf_wire.Wire
module Journal = Ddf_journal.Journal
module Session = Ddf_session.Session
module Engine = Ddf_exec.Engine
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics
module Replica = Ddf_replica.Replica
module Sync = Ddf_sync.Sync
module E = Ddf_core.Error
module Fault = Ddf_fault.Fault

exception Server_error of string

let server_errorf fmt = Format.kasprintf (fun s -> raise (Server_error s)) fmt

let m_requests = Metrics.counter "server.requests"
let m_mutations = Metrics.counter "server.mutations"
let m_errors = Metrics.counter "server.errors"
let m_timeouts = Metrics.counter "server.timeouts"
let m_shed = Metrics.counter "server.shed"
let m_deadline_missed = Metrics.counter "server.deadline_missed"
let m_connections = Metrics.counter "server.connections"
let m_rejected = Metrics.counter "server.rejected_connections"
let m_version_mismatch = Metrics.counter "server.version_mismatches"
let m_slow = Metrics.counter "server.slow_requests"
let h_request = Metrics.histogram "server.request_us"
let h_queue_wait = Metrics.histogram "server.write_queue_wait_us"

(* The zero-lock-read invariant, made checkable: every acquisition of
   the writer commit lock bumps this counter, and nothing on the read
   path ever takes it — so under read-only load the counter must stay
   flat.  The CI smoke and test suite assert exactly that. *)
let m_lock_acquisitions = Metrics.counter "server.lock_acquisitions"
let m_pool_reads = Metrics.counter "server.pool_reads"

(* replication gauges: the primary's shipped seqno, its worst follower
   lag (entries), follower count, and a follower's applied seqno *)
let g_seq = Metrics.gauge "replica.seq"
let g_lag = Metrics.gauge "replica.lag_entries"
let g_followers = Metrics.gauge "replica.followers"

(* ------------------------------------------------------------------ *)
(* The writer commit lock                                              *)
(* ------------------------------------------------------------------ *)

(* Vestigial by construction — only the (single) writer thread takes
   it, around each job's store/history/journal mutation — but kept and
   instrumented: the acquisition counter is the proof that the read
   path is lock-free.  A read that (re)grew a lock dependency would
   move the counter under read-only load and fail the assertion. *)
module Commit_lock = struct
  type t = Mutex.t

  let create () = Mutex.create ()

  let with_lock m f =
    Metrics.incr m_lock_acquisitions;
    Mutex.lock m;
    Fun.protect f ~finally:(fun () -> Mutex.unlock m)
end

(* ------------------------------------------------------------------ *)
(* The published view                                                  *)
(* ------------------------------------------------------------------ *)

(* What pure reads see: the store and history pinned together, plus
   the journal seqno and logical clock they correspond to.  The writer
   swaps a fresh one in (a single [Atomic.set]) after each group
   commit's fsync, so a reader can never observe state whose
   durability is still in flight; between commits every read costs one
   [Atomic.get] and zero synchronization. *)
type published = {
  pub_view : Engine.view;
  pub_seq : int;        (* journal seqno covered by the view *)
  pub_clock : int;      (* engine clock at publication *)
}

(* ------------------------------------------------------------------ *)
(* The domain-pool read executor                                       *)
(* ------------------------------------------------------------------ *)

(* Pure-read requests are handed to worker domains over a bounded
   queue; each worker pins the latest published view and evaluates
   without ever touching a server lock.  At most [max_pending] jobs
   wait; anything beyond is shed immediately instead of stacking up
   unbounded latency, and a job whose deadline passed while queued is
   answered [`Timeout] at dequeue, not executed.  With no domains the
   pool is inert and reads run inline on the connection thread. *)
module Read_pool = struct
  type rjob = {
    rj_run : unit -> Wire.response;
    rj_deadline : float option;
    rj_enqueued : float;
    rj_m : Mutex.t;
    rj_c : Condition.t;
    mutable rj_result : Wire.response option;
  }

  type t = {
    pm : Mutex.t;
    pc : Condition.t;
    pqueue : rjob Queue.t;
    max_pending : int;
    pstop : bool Atomic.t;
    mutable workers : unit Domain.t list;
  }

  let answer job resp =
    Mutex.lock job.rj_m;
    job.rj_result <- Some resp;
    Condition.signal job.rj_c;
    Mutex.unlock job.rj_m

  (* Workers drain the queue even while stopping, so no accepted job
     is ever dropped: stop only prevents new admissions. *)
  let worker p =
    let rec loop () =
      Mutex.lock p.pm;
      let rec await () =
        if not (Queue.is_empty p.pqueue) then Some (Queue.pop p.pqueue)
        else if Atomic.get p.pstop then None
        else begin
          Condition.wait p.pc p.pm;
          await ()
        end
      in
      let job = await () in
      Mutex.unlock p.pm;
      match job with
      | None -> ()
      | Some job ->
        Metrics.incr m_pool_reads;
        let now = Unix.gettimeofday () in
        let resp =
          match job.rj_deadline with
          | Some d when now > d ->
            Metrics.incr m_deadline_missed;
            Wire.Error
              (E.make `Timeout
                 (Printf.sprintf
                    "deadline expired after %.3fs in the read queue"
                    (now -. job.rj_enqueued)))
          | Some _ | None -> job.rj_run ()
        in
        answer job resp;
        loop ()
    in
    loop ()

  let create ~domains ~max_pending =
    let p =
      { pm = Mutex.create (); pc = Condition.create ();
        pqueue = Queue.create (); max_pending = max 1 max_pending;
        pstop = Atomic.make false; workers = [] }
    in
    if domains > 0 then
      p.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker p));
    p

  let pooled p = p.workers <> []

  (* [run] evaluates [f] on a worker domain (or inline when the pool
     has none) and returns its verdict. *)
  let run ?deadline p f =
    if not (pooled p) then `Done (f ())
    else begin
      let job =
        { rj_run = f; rj_deadline = deadline;
          rj_enqueued = Unix.gettimeofday (); rj_m = Mutex.create ();
          rj_c = Condition.create (); rj_result = None }
      in
      Mutex.lock p.pm;
      let verdict =
        if Atomic.get p.pstop then `Stopping
        else if Queue.length p.pqueue >= p.max_pending then `Shed
        else begin
          Queue.push job p.pqueue;
          Condition.signal p.pc;
          `Queued
        end
      in
      Mutex.unlock p.pm;
      match verdict with
      | `Stopping -> `Stopping
      | `Shed -> `Shed
      | `Queued ->
        Mutex.lock job.rj_m;
        while job.rj_result = None do
          Condition.wait job.rj_c job.rj_m
        done;
        Mutex.unlock job.rj_m;
        `Done (Option.get job.rj_result)
    end

  let stop p =
    Atomic.set p.pstop true;
    Mutex.lock p.pm;
    Condition.broadcast p.pc;
    Mutex.unlock p.pm

  let join p =
    stop p;
    List.iter Domain.join p.workers;
    p.workers <- []
end

(* ------------------------------------------------------------------ *)
(* Write-queue jobs                                                    *)
(* ------------------------------------------------------------------ *)

type job = {
  job_user : string;
  job_run : unit -> Wire.response;
  job_enqueued : float;
  job_deadline : float option;        (* absolute; shed when passed *)
  job_span : Obs.span_ctx option;     (* submitter's span, for the trace *)
  job_m : Mutex.t;
  job_c : Condition.t;
  mutable job_result : Wire.response option;
}

type t = {
  journal : Journal.t;
  ctx : Engine.context;
  commit_m : Commit_lock.t;           (* writer-only; see Commit_lock *)
  published : published Atomic.t;     (* what pure reads evaluate against *)
  pool : Read_pool.t;                 (* domain-pool read executor *)
  socket_path : string;
  listen_fd : Unix.file_descr;
  (* self-pipe: [stop] writes a byte to wake the accepter out of its
     [select] — closing the listening socket from another thread does
     not reliably interrupt a blocked accept *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  max_clients : int;
  request_timeout : float;
  max_queue : int;                    (* writer admission bound *)
  default_deadline : float option;    (* seconds, for deadline-less peers *)
  drain_grace : float;                (* seconds to let in-flight finish *)
  slow_log : float option;            (* seconds; log requests above it *)
  started_at : float;
  (* lock-free request-path state: the read side must not contend on
     [m], so the stop flag and the in-flight count are atomics *)
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;           (* requests being served right now *)
  (* shared state under [m] *)
  m : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  mutable threads : Thread.t list;
  queue : job Queue.t;
  queue_c : Condition.t;              (* signalled on enqueue and stop *)
  mutable avg_job_us : float;         (* EWMA of writer job service time *)
  mutable writer : Thread.t option;
  mutable accepter : Thread.t option;
  (* replication *)
  mutable follow : string option;     (* primary socket when a follower *)
  mutable follower : Replica.Follower.t option;
  mutable followers : Replica.Outbox.t list;   (* primary side, under [m] *)
}

let context t = t.ctx

let role t = match t.follow with None -> "primary" | Some _ -> "follower"

let is_follower t = t.follow <> None

(* ------------------------------------------------------------------ *)
(* Follower bookkeeping (primary side)                                 *)
(* ------------------------------------------------------------------ *)

let live_followers t =
  Mutex.lock t.m;
  let obs = List.filter Replica.Outbox.alive t.followers in
  t.followers <- obs;
  Mutex.unlock t.m;
  obs

let update_replica_gauges t =
  let obs = live_followers t in
  let seq = Journal.seq t.journal in
  let lag =
    List.fold_left
      (fun worst ob -> max worst (seq - Replica.Outbox.acked ob))
      0 obs
  in
  Metrics.set g_followers (float_of_int (List.length obs));
  Metrics.set g_lag (float_of_int lag)

let register_follower t outbox =
  Mutex.lock t.m;
  t.followers <- outbox :: t.followers;
  Mutex.unlock t.m;
  update_replica_gauges t

let unregister_follower t outbox =
  Mutex.lock t.m;
  t.followers <- List.filter (fun ob -> ob != outbox) t.followers;
  Mutex.unlock t.m;
  update_replica_gauges t

(* ------------------------------------------------------------------ *)
(* The writer loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Store/History/Session/Engine/Consistency/Journal errors all raise
   Ddf_error and pass through with their code intact; the unmigrated
   stringly exceptions get classified here. *)
let error_response e =
  let err =
    match e with
    | E.Ddf_error err -> err
    | Ddf_exec.Typing.Type_mismatch m -> E.make `Type_error m
    | Ddf_schema.Schema.Schema_error m | Ddf_graph.Task_graph.Graph_error m
    | Ddf_persist.Codec.Codec_error m | Ddf_persist.Sexp.Sexp_error m
    | Wire.Wire_error m ->
      E.make `Invalid m
    | e -> E.of_exn e
  in
  Wire.Error err

let wire_error ?context ?retryable ?retry_after code fmt =
  Format.kasprintf
    (fun m -> Wire.Error (E.make ?context ?retryable ?retry_after code m))
    fmt

let finish job result =
  Mutex.lock job.job_m;
  job.job_result <- Some result;
  Condition.signal job.job_c;
  Mutex.unlock job.job_m

(* Swap the published view: two atomic snapshot loads (history first,
   so the store side covers every instance its records mention) and
   one atomic store.  Runs on the writer thread only. *)
let publish t =
  Atomic.set t.published
    { pub_view = Engine.pin t.ctx; pub_seq = Journal.seq t.journal;
      pub_clock = t.ctx.Engine.clock }

(* Group commit: the writer drains its whole queue as one batch, runs
   each job (mutating the store and appending journal frames), then
   makes the batch durable with a single [Journal.sync] before
   acknowledging anyone.  Under load the queue fills while the previous
   batch runs, so the fsync cost amortizes over every waiting writer;
   an idle server degenerates to one fsync per write.  Jobs still
   execute one at a time under the write lock, so readers interleave
   between jobs exactly as before. *)
let writer_loop t =
  let rec next () =
    Mutex.lock t.m;
    let rec await () =
      if not (Queue.is_empty t.queue) then begin
        let batch = ref [] in
        while not (Queue.is_empty t.queue) do
          batch := Queue.pop t.queue :: !batch
        done;
        Some (List.rev !batch)
      end
      else if Atomic.get t.stopping then None
      else begin
        Condition.wait t.queue_c t.m;
        await ()
      end
    in
    let batch = await () in
    Mutex.unlock t.m;
    match batch with
    | None -> ()
    | Some batch ->
      (* test hook: an armed delay here models a stalled writer (slow
         disk, GC pause) so tests can fill the admission queue *)
      ignore (Fault.check "server.writer_stall" : Fault.action option);
      let run_one job =
        let now = Unix.gettimeofday () in
        let waited = now -. job.job_enqueued in
        Metrics.observe h_queue_wait (waited *. 1e6);
        if Obs.enabled () then
          Obs.complete ~cat:"server" ?span:job.job_span
            ~dur_us:(waited *. 1e6) "server.queue_wait";
        let expired =
          match job.job_deadline with Some d -> now > d | None -> false
        in
        let result =
          if expired then begin
            (* the client gave up while the job sat in the queue;
               executing it now would waste write-lock time nobody
               will read — and the entry was never journaled *)
            Metrics.incr m_deadline_missed;
            wire_error `Timeout
              "deadline expired after %.3fs in the write queue" waited
          end
          else if waited > t.request_timeout then begin
            Metrics.incr m_timeouts;
            wire_error `Timeout
              "request timed out after %.1fs in the write queue" waited
          end
          else begin
            let r =
              (* the write-job span becomes the writer thread's current
                 context, so journal appends (and the frame observer
                 shipping to followers) inherit the request's trace *)
              Obs.with_span ~cat:"server" ?parent:job.job_span
                ~attrs:[ ("user", Obs.Str job.job_user) ] "server.write_job"
              @@ fun () ->
              Commit_lock.with_lock t.commit_m (fun () ->
                  t.ctx.Engine.user <- job.job_user;
                  match job.job_run () with
                  | resp ->
                    ignore (Journal.maybe_compact t.journal);
                    resp
                  | exception e -> error_response e)
            in
            let dur_us = (Unix.gettimeofday () -. now) *. 1e6 in
            Mutex.lock t.m;
            (* EWMA of service time drives the retry-after hint *)
            t.avg_job_us <- (0.8 *. t.avg_job_us) +. (0.2 *. dur_us);
            Mutex.unlock t.m;
            r
          end
        in
        (job, result)
      in
      let results = List.map run_one batch in
      (* one fsync covers every frame the batch appended; only after it
         succeeds are the jobs acknowledged.  If the disk fails here,
         nobody gets an Ok for an entry of unknown durability. *)
      let synced, results =
        match
          (* the batch shares one fsync; parent the sync span to the
             first traced job so the group commit shows in its trace *)
          Obs.with_span ~cat:"journal"
            ?parent:(List.find_map (fun (job, _) -> job.job_span) results)
            ~attrs:[ ("batch", Obs.Int (List.length results)) ]
            "journal.sync_batch"
            (fun () -> Journal.sync t.journal)
        with
        | () -> (true, results)
        | exception e ->
          let err = error_response e in
          (false, List.map (fun (job, _) -> (job, err)) results)
      in
      (* Publication ordering: AFTER the batch's fsync, BEFORE any job
         is acknowledged.  A reader can never observe state whose
         durability is still pending, and a client that got its Ok is
         guaranteed to see its own write in the next view it pins.
         When the sync failed, or the journal is fail-stopped from an
         earlier batch, the live state holds mutations that can never
         become durable (there is no rollback): readers keep the last
         durable view instead. *)
      if synced && Journal.failed t.journal = None then publish t;
      List.iter (fun (job, result) -> finish job result) results;
      next ()
  in
  next ()

(* How long a shed client should back off: the queue's expected drain
   time under the writer's recent service rate.  Call under [t.m]. *)
let retry_after_hint t queued =
  let avg_us = if t.avg_job_us > 0.0 then t.avg_job_us else 2_000.0 in
  Float.max 0.01 (float_of_int (queued + 1) *. avg_us /. 1e6)

let submit ?deadline t ~user run =
  let job =
    { job_user = user; job_run = run; job_enqueued = Unix.gettimeofday ();
      job_deadline = deadline;
      (* captured on the submitting thread: the dispatch span (or the
         follower pump's context) the queued work belongs to *)
      job_span = (if Obs.enabled () then Obs.current_span () else None);
      job_m = Mutex.create (); job_c = Condition.create (); job_result = None }
  in
  Mutex.lock t.m;
  let verdict =
    if Atomic.get t.stopping then `Stopping
    else if Queue.length t.queue >= t.max_queue then begin
      Metrics.incr m_shed;
      `Full (retry_after_hint t (Queue.length t.queue))
    end
    else begin
      Queue.push job t.queue;
      Condition.broadcast t.queue_c;
      `Queued
    end
  in
  Mutex.unlock t.m;
  match verdict with
  | `Stopping -> wire_error `Unavailable "server is shutting down"
  | `Full retry_after ->
    (* shed at admission: the request never reaches the writer, so it
       is never executed and never journaled — safe to resend *)
    wire_error ~retry_after `Overloaded "write queue is full (%d jobs)"
      t.max_queue
  | `Queued ->
    Mutex.lock job.job_m;
    while job.job_result = None do
      Condition.wait job.job_c job.job_m
    done;
    Mutex.unlock job.job_m;
    Option.get job.job_result

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let rows_of snap iids =
  List.map
    (fun iid ->
      { Wire.row_iid = iid; row_entity = Store.Snapshot.entity_of snap iid;
        row_meta = Store.Snapshot.meta_of snap iid })
    iids

let nodes_with_entities flow nids =
  List.map (fun nid -> (nid, Ddf_graph.Task_graph.entity_of flow nid)) nids

(* Evaluate one request against a connection's session.  [pin] yields
   the view shared-state reads go through: on the read path it is a
   constant — the published view the request (or the whole pure-read
   batch) was dispatched with, so evaluation is repeatable and
   lock-free; on the writer path it pins the live context afresh, so
   a member of a mutation batch observes the members before it. *)
let rec eval t session ~pin req =
  let ctx = t.ctx in
  match (req : Wire.request) with
  | Wire.Batch reqs ->
    (* Positional answers; an inner failure becomes an [Error] at its
       position and execution continues — journaled effects of earlier
       members are already committed (there is no rollback).  When the
       batch is a mutation it arrived here as one writer job, so all
       its writes share one group commit. *)
    Wire.Ok_batch
      (List.map
         (fun r ->
           match (r : Wire.request) with
           | Wire.Batch _ ->
             wire_error `Invalid "batch requests do not nest"
           | Wire.Hello _ | Wire.Shutdown | Wire.Subscribe _ | Wire.Repl_ack _
           | Wire.Snapshot_export ->
             wire_error `Invalid "connection-level request %S inside a batch"
               (Wire.request_name r)
           | r -> ( try eval t session ~pin r with e -> error_response e))
         reqs)
  | Wire.Hello _ | Wire.Ping | Wire.Shutdown -> Wire.Ok_unit
  | Wire.Stat ->
    (* all numbers from one published record, so they are mutually
       consistent — seq, clock and the counts describe the same
       committed state *)
    let p = Atomic.get t.published in
    let v = p.pub_view in
    Wire.Ok_stat
      { Wire.st_role = role t;
        st_seq = p.pub_seq;
        st_clock = p.pub_clock;
        st_instances = Store.Snapshot.instance_count v.Engine.v_store;
        st_records = History.Snapshot.size v.Engine.v_history;
        st_store_tick = Store.Snapshot.tick v.Engine.v_store;
        st_history_tick = History.Snapshot.tick v.Engine.v_history;
        st_uptime_s = Unix.gettimeofday () -. t.started_at }
  | Wire.Lag ->
    let obs = live_followers t in
    Wire.Ok_lags
      { primary_seq = Journal.seq t.journal;
        rows =
          List.map
            (fun ob ->
              { Wire.lag_follower = Replica.Outbox.name ob;
                lag_acked = Replica.Outbox.acked ob;
                lag_sent = Replica.Outbox.sent ob })
            obs }
  | Wire.Compact ->
    Journal.compact t.journal;
    Wire.Ok_unit
  | Wire.Metrics -> Wire.Ok_metrics (Metrics.snapshot Metrics.global)
  | Wire.Sync_digest ->
    (* runs as a writer job (wal reads need the writer excluded), but
       mutates nothing — the anti-entropy handshake *)
    let d = Sync.digest_of t.journal in
    Wire.Ok_digest
      { wsid = d.Sync.g_wsid; base = d.Sync.g_base; seq = d.Sync.g_seq;
        fingerprint = d.Sync.g_fingerprint; cursors = d.Sync.g_cursors;
        entries = d.Sync.g_entries }
  | Wire.Sync_frames { after; limit } ->
    Wire.Ok_frames (Journal.frames t.journal ~after ~limit)
  | Wire.Sync_ack { origin; upto; frames } ->
    Wire.Ok_sync (Sync.apply_frames t.journal ~origin ~upto frames)
  | Wire.Conflicts ->
    let v = pin () in
    Wire.Ok_conflicts
      (List.map
         (fun (c : History.conflict) ->
           { Wire.cf_id = c.History.cid; cf_base = c.History.c_base;
             cf_ours = c.History.c_ours; cf_theirs = c.History.c_theirs;
             cf_origin = c.History.c_origin; cf_at = c.History.c_at;
             cf_winner = c.History.c_winner })
         (History.Snapshot.all_conflicts v.Engine.v_history))
  | Wire.Resolve { conflict; winner } ->
    ignore
      (History.resolve_conflict ctx.Engine.history conflict ~winner
        : History.conflict);
    Wire.Ok_unit
  | Wire.Subscribe _ | Wire.Repl_ack _ | Wire.Snapshot_export ->
    (* handled by the connection loop before reaching the evaluator *)
    wire_error `Invalid "streaming request outside the connection loop"
  | Wire.Catalog Wire.Entities -> Wire.Ok_atoms (Session.entity_catalog session)
  | Wire.Catalog Wire.Tools -> Wire.Ok_atoms (Session.tool_catalog session)
  | Wire.Catalog Wire.Flows -> Wire.Ok_atoms (Session.flow_catalog session)
  | Wire.Browse filter ->
    let v = pin () in
    let snap = v.Engine.v_store in
    Wire.Ok_rows (rows_of snap (Store.Snapshot.browse snap filter))
  | Wire.Install { entity; label; keywords; value } ->
    let value = Ddf_persist.Codec.value_of_sexp value in
    Wire.Ok_int (Engine.install ctx ~entity ~label ~keywords value)
  | Wire.Annotate { iid; label; comment; keywords } ->
    Store.annotate ctx.Engine.store iid ?label ?comment ?keywords ();
    Wire.Ok_unit
  | Wire.Start_goal entity -> Wire.Ok_int (Session.start_goal_based session entity)
  | Wire.Start_data iid -> Wire.Ok_int (Session.start_data_based session iid)
  | Wire.Expand nid ->
    let fresh = Session.expand session nid in
    Wire.Ok_nodes (nodes_with_entities (Session.current_flow session) fresh)
  | Wire.Specialize (nid, sub) ->
    Session.specialize session nid sub;
    Wire.Ok_unit
  | Wire.Select (nid, iids) ->
    Session.select session nid iids;
    Wire.Ok_unit
  | Wire.Node_browse (nid, filter) ->
    Wire.Ok_ints (Session.browse ~filter ~view:(pin ()) session nid)
  | Wire.Leaves ->
    let flow = Session.current_flow session in
    Wire.Ok_nodes (nodes_with_entities flow (Ddf_graph.Task_graph.leaves flow))
  | Wire.Run nid -> Wire.Ok_ints (Session.run session nid)
  | Wire.Render -> Wire.Ok_text (Session.render_task_window session)
  | Wire.Recall iid -> Wire.Ok_int (Session.recall session iid)
  | Wire.Trace iid ->
    Wire.Ok_text (Session.trace_text ~view:(pin ()) session iid)
  | Wire.Uses iid -> Wire.Ok_ints (Session.uses_of ~view:(pin ()) session iid)
  | Wire.Refresh iid ->
    let r = Ddf_exec.Consistency.refresh ctx iid in
    Wire.Ok_refresh
      { fresh = r.Ddf_exec.Consistency.fresh_instance;
        reran = r.Ddf_exec.Consistency.reran;
        reused = r.Ddf_exec.Consistency.reused }
  | Wire.Save_flow name ->
    Session.save_flow session name;
    Wire.Ok_unit
  | Wire.Load_flow name -> Wire.Ok_ints (Session.start_plan_based session name)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* A follower's store is a replica: every write must happen on the
   primary (and arrive here through the stream), or the two histories
   diverge.  Local journal compaction and shutdown remain legal. *)
let follower_rejects t req =
  is_follower t && Wire.is_mutation req
  && (match (req : Wire.request) with
     (* the sync pull verbs are writer-serialized wal reads, not
        mutations — a follower may be inspected and pulled from, it
        just may not apply a sync (its journal must stay a byte copy
        of the primary's) *)
     | Wire.Compact | Wire.Shutdown | Wire.Sync_digest | Wire.Sync_frames _ ->
       false
     | _ -> true)

let serve_request t session ~conn_id ~user ?deadline ?trace req =
  Metrics.incr m_requests;
  Atomic.incr t.in_flight;
  Fun.protect ~finally:(fun () -> Atomic.decr t.in_flight)
  @@ fun () ->
  (* the dispatch span parents everything this request causes — queue
     wait, write job, journal sync, replication frames — and, when the
     client sent a trace token, joins the client's trace *)
  Obs.with_span ~cat:"server" ~tid:conn_id ?parent:trace
    ~attrs:[ ("op", Obs.Str (Wire.request_name req)) ]
    "server.dispatch"
  @@ fun () ->
  let t0 = Unix.gettimeofday () *. 1e6 in
  let resp =
    if
      (* inclusive: a zero-remaining budget is already spent *)
      match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
    then begin
      (* the budget was spent before dispatch (slow network, queued
         socket): doing the work now would serve a reply nobody reads *)
      Metrics.incr m_deadline_missed;
      wire_error `Timeout "deadline expired before dispatch"
    end
    else if follower_rejects t req then
      wire_error ~retryable:false
        ~context:[ ("primary", Option.value t.follow ~default:"?") ]
        `Unavailable "read-only follower: send writes to the primary at %s"
        (Option.value t.follow ~default:"?")
    else if Wire.is_mutation req then begin
      Metrics.incr m_mutations;
      submit ?deadline t ~user:!user
        (fun () -> eval t session ~pin:(fun () -> Engine.pin t.ctx) req)
    end
    else begin
      (* Pure read (including a pure-read batch): pin the latest
         published view once and evaluate against it — on a pool
         domain when the server has read domains, inline otherwise.
         Either way the request takes no server lock; every member of
         a batch reads the same frozen state. *)
      let g0 = Unix.gettimeofday () in
      let evaluate () =
        if Obs.enabled () then
          Obs.complete ~cat:"server" ~tid:conn_id
            ~dur_us:((Unix.gettimeofday () -. g0) *. 1e6)
            "server.read_queue_wait";
        let view = (Atomic.get t.published).pub_view in
        try eval t session ~pin:(fun () -> view) req
        with e -> error_response e
      in
      match Read_pool.run ?deadline t.pool evaluate with
      | `Done resp -> resp
      | `Stopping -> wire_error `Unavailable "server is shutting down"
      | `Shed ->
        Metrics.incr m_shed;
        wire_error ~retry_after:0.05 `Overloaded
          "read queue is full (%d jobs pending)"
          t.pool.Read_pool.max_pending
    end
  in
  let dur_us = (Unix.gettimeofday () *. 1e6) -. t0 in
  Metrics.observe h_request dur_us;
  (match resp with Wire.Error _ -> Metrics.incr m_errors | _ -> ());
  if Obs.enabled () then
    Obs.complete ~cat:"server" ~tid:conn_id ~dur_us
      ~attrs:
        [ ("op", Obs.Str (Wire.request_name req)); ("user", Obs.Str !user);
          ("ok", Obs.Bool (match resp with Wire.Error _ -> false | _ -> true)) ]
      "server.request";
  (match t.slow_log with
  | Some threshold when dur_us >= threshold *. 1e6 ->
    (* sampled trace dump: the slow-log line carries the trace token so
       the offending request can be pulled out of the trace file *)
    Metrics.incr m_slow;
    let tok =
      match Obs.current_span () with
      | Some ctx -> " trace=" ^ Obs.span_ctx_to_token ctx
      | None -> ""
    in
    Printf.eprintf "[hercules] slow request: op=%s user=%s conn=%d dur=%.3fs%s\n%!"
      (Wire.request_name req) !user conn_id (dur_us /. 1e6) tok
  | Some _ | None -> ());
  resp

let remove_conn t conn_id =
  Mutex.lock t.m;
  t.conns <- List.filter (fun (id, _) -> id <> conn_id) t.conns;
  Mutex.unlock t.m

(* A self-contained save of the current state (every payload inline),
   spooled to an unlinked file in the database directory: the returned
   descriptor is the only reference to it, so the bytes are exactly
   the state at the returned seqno whatever the writer does next.  The
   on-disk checkpoint is no use here — it references this database's
   cement store.  Call from a writer job. *)
let spool_export t =
  let seq, data = Journal.snapshot_state t.journal in
  let path =
    Filename.temp_file ~temp_dir:(Journal.dir t.journal) "export-" ".tmp"
  in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Unix.unlink path;
  (try
     let len = String.length data in
     let rec go off =
       if off < len then go (off + Unix.write_substring fd data off (len - off))
     in
     go 0
   with e ->
     Unix.close fd;
     raise e);
  (seq, fd)

(* [Snapshot_export]: stream a self-contained save back as
   begin/chunk/end frames.  The save is spooled by one writer job, so
   it is exactly the state at the captured seqno; the streaming itself
   runs on the connection thread, outside the writer — a slow reader
   never blocks writes. *)
let snapshot_export_stream t fd ~user =
  let pinned = ref None in
  let resp =
    submit t ~user (fun () ->
        pinned := Some (spool_export t);
        Wire.Ok_unit)
  in
  match (resp, !pinned) with
  | Wire.Ok_unit, Some (seq, sfd) -> (
    try Replica.stream_snapshot ~seq sfd ~send:(Wire.send_response fd)
    with Wire.Wire_error _ | Unix.Unix_error _ | Sys_error _ -> ())
  | resp, _ -> (
    try Wire.send_response fd resp with Wire.Wire_error _ -> ())

(* Before closing a connection whose input was refused, read off and
   drop what the peer has sent already (until it goes quiet for 0.1 s,
   for at most 1 s in all), so that the close sends end-of-stream:
   closing with unread input sends a reset instead, which the peer may
   read in place of the error frame.  The write side stays open until
   the close, so the peer sees the end only once the connection's slot
   is free again. *)
let end_refused fd =
  let buf = Bytes.create 65536 in
  let until = Unix.gettimeofday () +. 1.0 in
  let rec drain () =
    let left = until -. Unix.gettimeofday () in
    if left > 0.0 then begin
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.min left 0.1);
      if Unix.read fd buf 0 (Bytes.length buf) > 0 then drain ()
    end
  in
  try drain () with Unix.Unix_error _ -> ()

let rec stop t =
  let already = Atomic.exchange t.stopping true in
  Mutex.lock t.m;
  let driver = t.follower in
  t.follower <- None;
  Condition.broadcast t.queue_c;
  Mutex.unlock t.m;
  if not already then begin
    (* stop admitting pool reads; queued ones still get answered *)
    Read_pool.stop t.pool;
    (* a follower stops chasing the primary first, so no replication
       job races the drain *)
    Option.iter Replica.Follower.stop driver;
    (* unblock the accept loop; the accepter closes the listening
       socket itself on the way out *)
    (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    (* graceful drain: new work is already refused everywhere, so let
       the requests being served finish (bounded by [drain_grace])
       before severing the connections *)
    let drainer =
      Thread.create
        (fun () ->
          let give_up = Unix.gettimeofday () +. t.drain_grace in
          let rec poll () =
            let busy = Atomic.get t.in_flight > 0 in
            if busy && Unix.gettimeofday () < give_up then begin
              Thread.delay 0.01;
              poll ()
            end
          in
          poll ();
          Mutex.lock t.m;
          let conns = t.conns in
          Mutex.unlock t.m;
          List.iter
            (fun (_, fd) ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            conns)
        ()
    in
    Mutex.lock t.m;
    t.threads <- drainer :: t.threads;
    Mutex.unlock t.m
  end

(* A [Subscribe] flips its connection into replication mode.  The
   backlog read and the fan-out registration run as one writer job, so
   no frame can be appended between "read everything through seqno s"
   and "start receiving live frames after s" — the stream is gapless
   by construction.  After that this thread only reads acks; the
   outbox's sender thread owns the socket's write side. *)
and replication_loop t fd ~user since =
  let outbox = Replica.Outbox.create ~name:user fd in
  let push_frames frames =
    List.iter
      (fun (seq, payload) ->
        Replica.Outbox.push outbox
          (Wire.Ok_frame
             { seq; payload; digest = Digest.to_hex (Digest.string payload) }))
      frames
  in
  let subscribed =
    submit t ~user (fun () ->
        (match Journal.entries_since t.journal since with
        | Journal.Snapshot_needed ->
          (* the journal was compacted past [since]: reseed with a
             self-contained save of the state at [seq], spooled here
             under the writer and streamed in chunks by the outbox's
             sender; live frames follow it. *)
          let seq, fd = spool_export t in
          Replica.Outbox.push_snapshot_fd outbox ~seq fd
        | Journal.Frames frames -> push_frames frames);
        register_follower t outbox;
        Wire.Ok_unit)
  in
  (match subscribed with
  | Wire.Ok_unit ->
    let rec acks () =
      match Wire.recv_request fd with
      | None -> ()
      | Some (Wire.Repl_ack seq, _) ->
        Replica.Outbox.note_ack outbox seq;
        update_replica_gauges t;
        acks ()
      | Some _ ->
        (* protocol violation: drop the stream *)
        ()
    in
    (try acks () with Wire.Wire_error _ | Unix.Unix_error _ -> ())
  | resp -> (
    try Wire.send_response fd resp with Wire.Wire_error _ -> ()));
  unregister_follower t outbox;
  Replica.Outbox.close outbox

and connection_loop t fd conn_id =
  let session = Session.of_context t.ctx in
  let user = ref "anonymous" in
  let stopping () = Atomic.get t.stopping in
  let rec loop () =
    match Wire.recv_request fd with
    | None -> ()
    | exception Wire.Wire_error m ->
      (* malformed frame or undecodable request (a pre-v9 peer's
         s-expression frame included): answer with a typed error, then
         drop the connection *)
      (try Wire.send_response fd (wire_error `Invalid "%s" m)
       with Wire.Wire_error _ -> ());
      end_refused fd
    | Some (req, meta) -> (
      (* the budget starts ticking the moment the frame is read; a
         header-less request falls back to the server default *)
      let deadline =
        let now = Unix.gettimeofday () in
        match meta.Wire.fm_deadline_ms with
        | Some ms -> Some (now +. (float_of_int ms /. 1000.0))
        | None -> Option.map (fun d -> now +. d) t.default_deadline
      in
      let trace = meta.Wire.fm_trace in
      match req with
      | Wire.Subscribe since -> replication_loop t fd ~user:!user since
      | Wire.Snapshot_export ->
        snapshot_export_stream t fd ~user:!user;
        if not (stopping ()) then loop ()
      | req ->
        let resp, continue =
          match req with
          | Wire.Hello { user = u; version } ->
            if version <> Wire.protocol_version then begin
              Metrics.incr m_version_mismatch;
              ( wire_error `Invalid
                  "protocol version mismatch: server speaks v%d only, \
                   client speaks v%d"
                  Wire.protocol_version version,
                false )
            end
            else begin
              user := u;
              (serve_request t session ~conn_id ~user ?deadline ?trace req,
               true)
            end
          | Wire.Shutdown ->
            ( serve_request t session ~conn_id ~user ?deadline ?trace
                Wire.Shutdown,
              false )
          | req ->
            (serve_request t session ~conn_id ~user ?deadline ?trace req, true)
        in
        (match Wire.send_response fd resp with
        | () -> ()
        | exception Wire.Wire_error _ -> ());
        if continue then begin
          (* during a drain, finish the request in hand but take no
             more from this connection *)
          if not (stopping ()) then loop ()
        end
        else if
          (* a Shutdown request stops the whole server after the reply *)
          match req with Wire.Shutdown -> true | _ -> false
        then stop t
        else end_refused fd)
  in
  (* the slot and the descriptor are released on every exit, whatever
     escapes the loop *)
  Fun.protect
    ~finally:(fun () ->
      remove_conn t conn_id;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Wire.Wire_error _ | Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)
(* ------------------------------------------------------------------ *)

let accept_loop t =
  let stopping () = Atomic.get t.stopping in
  (* Wait until a connection is pending or [stop] tickles the wake
     pipe, so the loop never blocks inside [accept] itself. *)
  let rec ready () =
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
    | rs, _, _ -> List.mem t.listen_fd rs
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ()
  in
  let rec loop () =
    if not (stopping ()) then begin
      if not (ready ()) then loop ()
      else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Metrics.incr m_connections;
        Mutex.lock t.m;
        let reject =
          Atomic.get t.stopping || List.length t.conns >= t.max_clients
        in
        let conn_id = t.next_conn in
        t.next_conn <- conn_id + 1;
        if not reject then t.conns <- (conn_id, fd) :: t.conns;
        Mutex.unlock t.m;
        if reject then begin
          Metrics.incr m_rejected;
          (try
             Wire.send_response fd
               (wire_error ~retry_after:0.1 `Overloaded
                  "server is at capacity (%d clients)" t.max_clients)
           with Wire.Wire_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          let th = Thread.create (fun () -> connection_loop t fd conn_id) () in
          Mutex.lock t.m;
          t.threads <- th :: t.threads;
          Mutex.unlock t.m
        end;
        loop ()
      | exception
          Unix.Unix_error
            ( ( Unix.EBADF | Unix.EINVAL | Unix.EINTR | Unix.EAGAIN
              | Unix.EWOULDBLOCK | Unix.ECONNABORTED ),
              _, _ ) ->
        (* signal, aborted handshake, or a spurious wakeup: re-check
           the flag *)
        loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?registry ?seed ?follow ?(max_clients = 64)
    ?(request_timeout = 30.0) ?(max_queue = 256) ?default_deadline
    ?(read_domains = 0) ?(drain_grace = 5.0) ?compact_every ?sync_mode
    ?slow_log ~db ~socket schema =
  let journal = Journal.open_ ?registry ?compact_every ?sync_mode ~dir:db schema in
  let ctx = Journal.context journal in
  (match seed with
  | Some f when follow = None && Store.instance_count ctx.Engine.store = 0 ->
    f ctx
  | Some _ | None -> ());
  if Sys.file_exists socket then (
    try Unix.unlink socket
    with Unix.Unix_error _ -> server_errorf "cannot remove stale socket %s" socket);
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Journal.close journal;
     server_errorf "cannot bind %s: %s" socket (Unix.error_message e));
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let wake_r, wake_w = Unix.pipe () in
  let t =
    { journal; ctx; commit_m = Commit_lock.create ();
      published =
        Atomic.make
          { pub_view = Engine.pin ctx; pub_seq = Journal.seq journal;
            pub_clock = ctx.Engine.clock };
      pool =
        Read_pool.create ~domains:read_domains
          ~max_pending:(4 * max_clients);
      socket_path = socket; listen_fd; wake_r; wake_w;
      max_clients; request_timeout; max_queue; default_deadline;
      drain_grace; slow_log;
      started_at = Unix.gettimeofday ();
      stopping = Atomic.make false; in_flight = Atomic.make 0;
      m = Mutex.create (); conns = []; next_conn = 1;
      threads = []; queue = Queue.create (); queue_c = Condition.create ();
      avg_job_us = 0.0;
      writer = None; accepter = None;
      follow; follower = None; followers = [] }
  in
  (* Fan every journaled entry out to the subscribed followers.  The
     observer fires on the writer thread right after the entry hits
     the local disk (durable first, then ship) — and it fires on
     replicated applies too, so a follower can itself feed followers. *)
  Journal.set_frame_observer journal (fun seq payload ->
      Metrics.set g_seq (float_of_int seq);
      match live_followers t with
      | [] -> ()
      | obs ->
        let frame =
          Wire.Ok_frame
            { seq; payload; digest = Digest.to_hex (Digest.string payload) }
        in
        (* the observer fires on the writer thread inside the write-job
           span, so the frame ships with the producing request's trace *)
        let trace = if Obs.enabled () then Obs.current_span () else None in
        List.iter (fun ob -> Replica.Outbox.push ?trace ob frame) obs);
  Metrics.set g_seq (float_of_int (Journal.seq journal));
  t.writer <- Some (Thread.create writer_loop t);
  t.accepter <- Some (Thread.create accept_loop t);
  (* A follower chases its primary on a background driver: every frame
     and snapshot is applied as a writer job, so replication shares
     the one serialization point (and the RW lock, and auto-compaction)
     with local mutations. *)
  (match follow with
  | None -> ()
  | Some primary ->
    let apply_job what run =
      match submit t ~user:"replication" run with
      | Wire.Ok_unit -> ()
      | Wire.Error err ->
        server_errorf "replication %s failed: %s" what (E.to_string err)
      | _ -> server_errorf "replication %s failed" what
    in
    let driver =
      Replica.Follower.start
        ~name:(Printf.sprintf "follower:%s" (Filename.basename socket))
        (* spool streamed snapshots beside the database, so the final
           rename into place stays on one filesystem *)
        ~spool:(Journal.dir t.journal)
        ~primary
        ~current_seq:(fun () -> Journal.seq t.journal)
        ~apply:(fun ~trace ~seq payload ->
          apply_job "apply" (fun () ->
              (* linked under the primary's write span via the frame's
                 trace token: the cross-process apply-lag edge *)
              Obs.with_span ~cat:"replica" ?parent:trace
                ~attrs:[ ("seq", Obs.Int seq) ] "follower.apply"
                (fun () -> Journal.apply t.journal ~seq payload);
              Wire.Ok_unit))
        ~reset_file:(fun ~seq path ->
          apply_job "resync" (fun () ->
              Journal.reset_to_snapshot_file t.journal ~seq path;
              Wire.Ok_unit))
        ~on_error:(fun m ->
          if Obs.enabled () then
            Obs.instant ~cat:"replica" ~attrs:[ ("error", Obs.Str m) ]
              "replica.stream_error")
        ()
    in
    t.follower <- Some driver);
  t

(* Failover: stop chasing the (dead) primary and open for writes.
   The local journal already holds a prefix of the primary's history —
   byte-identical — so new writes continue the same log. *)
let promote t =
  let driver =
    Mutex.lock t.m;
    let d = t.follower in
    t.follower <- None;
    t.follow <- None;
    Mutex.unlock t.m;
    d
  in
  Option.iter Replica.Follower.stop driver

let wait t =
  Option.iter Thread.join t.accepter;
  Option.iter Thread.join t.writer;
  let rec drain () =
    Mutex.lock t.m;
    let ths = t.threads in
    t.threads <- [];
    Mutex.unlock t.m;
    match ths with
    | [] -> ()
    | ths ->
      List.iter Thread.join ths;
      drain ()
  in
  drain ();
  Read_pool.join t.pool;
  Journal.close t.journal;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ())

let run ?registry ?seed ?follow ?max_clients ?request_timeout
    ?max_queue ?default_deadline ?read_domains ?drain_grace ?compact_every
    ?sync_mode ?slow_log ~db ~socket schema =
  let t =
    start ?registry ?seed ?follow ?max_clients ?request_timeout
      ?max_queue ?default_deadline ?read_domains ?drain_grace ?compact_every
      ?sync_mode ?slow_log ~db ~socket schema
  in
  let on_signal _ = stop t in
  let previous =
    List.filter_map
      (fun s ->
        try Some (s, Sys.signal s (Sys.Signal_handle on_signal))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigint; Sys.sigterm ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) previous)
    (fun () -> wait t)
