(* The Hercules design-server daemon.

   Concurrency model (MVCC): one thread per connection, an optional
   pool of reader DOMAINS, no writer thread.  Store/history mutations
   (install, annotate, run, refresh) are enqueued as jobs and
   committed in arrival order by whichever submitter leads the group
   commit, one at a time — a single serialization point, so the
   design history is trivially serializable and the journal records
   one total order.  After each group commit the leader atomically
   publishes a pinned store+history snapshot ([published]); pure reads
   (catalogs, browsing, task-window editing, history queries) evaluate
   against that frozen view and never synchronize with a commit at
   all — no read lock, no gate, nothing to contend on.  The only lock
   left on the commit path is the (vestigial, uncontended) commit
   lock, instrumented with [server.lock_acquisitions] precisely so
   tests can assert the counter stays flat under read-only load.

   With [read_domains > 0] pure reads are dispatched to a pool of
   worker domains that pin the latest published view per request (or
   per pure-read batch), so reads scale across cores while writes
   keep committing.  [read_domains = 0] (the default) evaluates them
   inline on the connection thread — still lock-free.  The write queue
   and the read pool are two instances of one bounded executor.

   Each connection owns a private Session over the shared context, so
   concurrent designers build flows independently while sharing one
   store, history and clock — the paper's multi-designer Hercules
   database.  A connection serves one request at a time, so handing
   its session to a pool domain is race-free.  Client identity
   arrives via Hello and is rebound onto ctx.user by the group commit
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
let m_shed = Metrics.counter "server.shed"
let m_deadline_missed = Metrics.counter "server.deadline_missed"
let m_connections = Metrics.counter "server.connections"
let m_rejected = Metrics.counter "server.rejected_connections"
let m_version_mismatch = Metrics.counter "server.version_mismatches"
let m_slow = Metrics.counter "server.slow_requests"
let h_request = Metrics.histogram "server.request_us"
let h_write_wait = Metrics.histogram "server.write_queue_wait_us"
let h_read_wait = Metrics.histogram "server.read_queue_wait_us"

(* The words a write request allocates (both heaps, see
   [Metrics.with_alloc_words] for the threads a count covers): its
   frame's decode, on its connection thread, plus its job on the
   thread leading its group commit, journal appends included; the
   response's encode is not counted.  By verb class; and the minor
   collections a commit group spans, from taking it to answering it. *)
let h_alloc_words =
  let h verb = Metrics.histogram ("server.alloc_words." ^ verb) in
  let install = h "install" and batch = h "batch" and run = h "run" in
  let refresh = h "refresh" and annotate = h "annotate" in
  fun (req : Wire.request) ->
    match req with
    | Wire.Install _ -> Some install
    | Wire.Batch _ -> Some batch
    | Wire.Run _ -> Some run
    | Wire.Refresh _ -> Some refresh
    | Wire.Annotate _ -> Some annotate
    | _ -> None

let h_minor_collections = Metrics.histogram "server.minor_collections"

let metered_alloc ~decode_words req f =
  match h_alloc_words req with
  | None -> f ()
  | Some h ->
    let resp, words = Metrics.with_alloc_words f in
    Metrics.observe h (decode_words +. words);
    resp


(* The zero-lock-read invariant, made checkable: every acquisition of
   the commit lock bumps this counter, and nothing on the read
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
(* The commit lock                                                     *)
(* ------------------------------------------------------------------ *)

(* Vestigial by construction — only the one thread leading a group
   commit takes it, around each job's store/history/journal mutation —
   but kept and instrumented: the acquisition counter is the proof that
   the read path is lock-free.  A read that (re)grew a lock dependency would
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
   the journal seqno and logical clock they correspond to.  The group
   commit swaps a fresh one in (a single [Atomic.set]) after each group
   commit's fsync, so a reader can never observe state whose
   durability is still in flight; between commits every read costs one
   [Atomic.get] and zero synchronization. *)
type published = {
  pub_view : Engine.view;
  pub_seq : int;        (* journal seqno covered by the view *)
  pub_clock : int;      (* engine clock at publication *)
}

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

(* ------------------------------------------------------------------ *)
(* The bounded executor                                                *)
(* ------------------------------------------------------------------ *)

(* One queue discipline for both kinds of queued server work: the
   write queue, which its submitters commit themselves in groups, and
   the read pool, whose worker domains take one job each.  A producer
   is admitted (or refused) by [submit] and blocks there until its job
   is answered.  A read domain [take]s jobs; a write producer that
   finds no group commit running leads one ([lead]).  Either way each
   job is [serve]d (the one expiry check, at dequeue) and [answer]ed.
   Stopping refuses new admissions, but every accepted job is still
   taken and answered. *)
module Executor = struct
  type job = {
    run : unit -> Wire.response;
    user : string;
    enqueued : float;
    deadline : float;                 (* absolute; [infinity] for none *)
    span : Obs.span_ctx option;       (* submitter's span, for the trace *)
    (* the producer waits on its own pair, so an answer wakes only
       its producer, not every producer still queued *)
    answer_m : Mutex.t;
    answer_c : Condition.t;
    mutable answer : Wire.response option;
  }

  type t = {
    what : string;                    (* "write" or "read", for messages *)
    bound : int option;               (* admission bound, if any *)
    max_wait : float;                 (* caps every job's deadline *)
    wait_span : string;
    h_wait : Metrics.histogram;
    m : Mutex.t;
    work : Condition.t;               (* read domains; [await_idle] *)
    q : job Queue.t;
    mutable stopping : bool;
    mutable leading : bool;           (* a group commit is running *)
    mutable avg_us : float;           (* EWMA of job service time *)
  }

  let create ?bound ?(max_wait = infinity) ~what ~wait_span ~h_wait () =
    { what; bound; max_wait; wait_span; h_wait; m = Mutex.create ();
      work = Condition.create (); q = Queue.create (); stopping = false;
      leading = false; avg_us = 0.0 }

  (* How long a shed client should back off: the queue's expected
     drain time under the recent service rate.  Call under [m]. *)
  let retry_after_hint ex =
    let avg_us = if ex.avg_us > 0.0 then ex.avg_us else 2_000.0 in
    Float.max 0.01 (float_of_int (Queue.length ex.q + 1) *. avg_us /. 1e6)

  (* Set each job's answer, under that job's own lock, unless it has
     one already, and wake its producer. *)
  let answer answers =
    List.iter
      (fun (job, resp) ->
        Mutex.protect job.answer_m (fun () ->
            if job.answer = None then begin
              job.answer <- Some resp;
              Condition.signal job.answer_c
            end))
      answers

  (* The leader's loop: [commit] the whole queue as one group until
     the queue is empty, then step down.  Whatever escapes [commit]
     answers the members still waiting, so the leader always steps
     down and no member hangs. *)
  let rec lead ex commit =
    match
      Mutex.protect ex.m @@ fun () ->
      let group = List.of_seq (Queue.to_seq ex.q) in
      ex.leading <- not (Queue.is_empty ex.q);
      Queue.clear ex.q;
      if not ex.leading then Condition.broadcast ex.work;
      group
    with
    | [] -> ()
    | group ->
      (try commit group
       with e -> answer (List.map (fun job -> (job, error_response e)) group));
      lead ex commit

  (* Producer side: admit [run], wait for its answer and return it.
     The deadline is capped at [max_wait] past admission.  With
     [lead], a producer that finds no group commit running leads one
     on its own thread, its own job in the first group. *)
  let submit ex ?(deadline = infinity) ?lead:commit ~user run =
    let enqueued = Unix.gettimeofday () in
    let job =
      { run; user; enqueued;
        deadline = Float.min deadline (enqueued +. ex.max_wait);
        (* captured on the submitting thread: the dispatch span (or the
           follower pump's context) the queued work belongs to *)
        span = (if Obs.enabled () then Obs.current_span () else None);
        answer_m = Mutex.create (); answer_c = Condition.create ();
        answer = None }
    in
    let admitted =
      Mutex.protect ex.m @@ fun () ->
      if ex.stopping then Error (wire_error `Unavailable "server is shutting down")
      else
        match ex.bound with
        | Some bound when Queue.length ex.q >= bound ->
          (* shed at admission: the job never reaches a consumer, so it
             is never executed and never journaled — safe to resend *)
          Metrics.incr m_shed;
          Error
            (wire_error ~retry_after:(retry_after_hint ex) `Overloaded
               "%s queue is full (%d jobs)" ex.what bound)
        | Some _ | None ->
          Queue.push job ex.q;
          let leads = Option.is_some commit && not ex.leading in
          if Option.is_none commit then Condition.signal ex.work
          else ex.leading <- true;
          Ok leads
    in
    match admitted with
    | Error refused -> refused
    | Ok leads ->
      if leads then lead ex (Option.get commit);
      Mutex.protect job.answer_m @@ fun () ->
      while job.answer = None do
        Condition.wait job.answer_c job.answer_m
      done;
      Option.get job.answer

  (* Read-domain side: the oldest queued job; [None] once stopped and
     drained. *)
  let take ex =
    Mutex.protect ex.m @@ fun () ->
    while Queue.is_empty ex.q && not ex.stopping do
      Condition.wait ex.work ex.m
    done;
    Queue.take_opt ex.q

  (* Run a taken job through [exec], unless its deadline passed while
     it waited: then it is answered [`Timeout] and never run — its
     client gave up, and a write was never journaled. *)
  let serve ex job exec =
    let now = Unix.gettimeofday () in
    let waited = now -. job.enqueued in
    Metrics.observe ex.h_wait (waited *. 1e6);
    if Obs.enabled () then
      Obs.complete ~cat:"server" ?span:job.span ~dur_us:(waited *. 1e6)
        ex.wait_span;
    if now > job.deadline then begin
      Metrics.incr m_deadline_missed;
      wire_error `Timeout
        "deadline expired: timed out after %.3fs in the %s queue" waited
        ex.what
    end
    else begin
      let resp = try exec () with e -> error_response e in
      let dur_us = (Unix.gettimeofday () -. now) *. 1e6 in
      Mutex.protect ex.m (fun () ->
          ex.avg_us <- (0.8 *. ex.avg_us) +. (0.2 *. dur_us));
      resp
    end

  let stop ex =
    Mutex.protect ex.m @@ fun () ->
    ex.stopping <- true;
    Condition.broadcast ex.work

  (* Block until no group commit runs; once stopped, none starts. *)
  let await_idle ex =
    Mutex.protect ex.m @@ fun () ->
    while ex.leading do Condition.wait ex.work ex.m done
end

type t = {
  journal : Journal.t;
  ctx : Engine.context;
  commit_m : Commit_lock.t;           (* commit-only; see Commit_lock *)
  published : published Atomic.t;     (* what pure reads evaluate against *)
  writes : Executor.t;                (* committed by its submitters *)
  reads : Executor.t;                 (* drained by the read domains *)
  mutable read_workers : unit Domain.t list;
  socket_path : string;
  listen_fd : Unix.file_descr;
  (* self-pipe: [stop] writes a byte to wake the accepter out of its
     [select] — closing the listening socket from another thread does
     not reliably interrupt a blocked accept *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  max_clients : int;
  default_deadline : float option;    (* seconds, for deadline-less peers *)
  drain_grace : float;                (* seconds to let in-flight finish *)
  slow_log : float option;            (* seconds; log requests above it *)
  started_at : float;
  (* lock-free request-path state: the read side must not contend on
     [m], so the stop flag and the in-flight count are atomics *)
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;           (* requests being served right now *)
  drainers : int Atomic.t;            (* refused connections being drained *)
  (* shared state under [m] *)
  m : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  mutable threads : Thread.t list;
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
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

(* Swap the published view: two atomic snapshot loads (history first,
   so the store side covers every instance its records mention) and
   one atomic store.  Runs only inside a group commit. *)
let publish t =
  Atomic.set t.published
    { pub_view = Engine.pin t.ctx; pub_seq = Journal.seq t.journal;
      pub_clock = t.ctx.Engine.clock }

(* One write job: the job's span becomes the leading thread's current
   context, so journal appends (and the frame observer shipping to
   followers) inherit the request's trace. *)
let write_job t (job : Executor.job) () =
  Obs.with_span ~cat:"server" ?parent:job.span
    ~attrs:[ ("user", Obs.Str job.user) ] "server.write_job"
  @@ fun () ->
  Commit_lock.with_lock t.commit_m (fun () ->
      t.ctx.Engine.user <- job.user;
      let resp = job.run () in
      ignore (Journal.maybe_compact t.journal);
      resp)

(* Group commit, on the thread of the submitter that leads it: run
   each job of the group (mutating the store and appending journal
   frames), then make the group durable with a single [Journal.sync]
   before acknowledging anyone.  Writes that arrive meanwhile form the
   leader's next group, so under load the fsync cost amortizes over
   every waiting writer, and a lone write commits on its own
   connection thread.  Jobs run one at a time under the commit lock. *)
let commit t group =
  let collections = Metrics.minor_collections () in
  (* test hook: an armed delay here models a stalled commit (slow
     disk, GC pause) so tests can fill the admission queue; an armed
     failure escapes the commit before any job runs *)
  Fault.fire "server.writer_stall";
  let results =
    List.map
      (fun job -> (job, Executor.serve t.writes job (write_job t job)))
      group
  in
  (* one fsync covers every frame the group appended; only after it
     succeeds are the jobs acknowledged.  If the disk fails here,
     nobody gets an Ok for an entry of unknown durability. *)
  let synced, results =
    match
      (* the group shares one fsync; parent the sync span to the
         first traced job so the group commit shows in its trace *)
      Obs.with_span ~cat:"journal"
        ?parent:
          (List.find_map (fun ((job : Executor.job), _) -> job.span) results)
        ~attrs:[ ("batch", Obs.Int (List.length results)) ]
        "journal.sync_batch"
        (fun () -> Journal.sync t.journal)
    with
    | () -> (true, results)
    | exception e ->
      let err = error_response e in
      (false, List.map (fun (job, _) -> (job, err)) results)
  in
  (* Publication ordering: AFTER the group's fsync, BEFORE any job is
     acknowledged.  A reader can never observe state whose durability
     is still pending, and a client that got its Ok is guaranteed to
     see its own write in the next view it pins.  When the sync
     failed, or the journal is fail-stopped from an earlier group, the
     live state holds mutations that can never become durable (there
     is no rollback): readers keep the last durable view instead. *)
  if synced && Journal.failed t.journal = None then publish t;
  Executor.answer results;
  Metrics.observe h_minor_collections
    (float_of_int (Metrics.minor_collections () - collections))

let submit_write t ?deadline ~user run =
  Executor.submit t.writes ?deadline ~lead:(commit t) ~user run

(* A read domain takes one job at a time; it exits once the executor
   is stopped and drained. *)
let read_worker t =
  let rec next () =
    match Executor.take t.reads with
    | None -> ()
    | Some job ->
      Metrics.incr m_pool_reads;
      Executor.answer [ (job, Executor.serve t.reads job job.run) ];
      next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let rows_of snap iids =
  List.map
    (fun iid ->
      let inst = Store.Snapshot.find snap iid in
      { Wire.row_iid = iid; row_entity = inst.Store.entity;
        row_meta = inst.Store.meta })
    iids

let nodes_with_entities flow nids =
  List.map (fun nid -> (nid, Ddf_graph.Task_graph.entity_of flow nid)) nids

(* Evaluate one request against a connection's session.  [pin] yields
   the view shared-state reads go through: on the read path it is a
   constant — the published view the request (or the whole pure-read
   batch) was dispatched with, so evaluation is repeatable and
   lock-free; on the write path it pins the live context afresh, so
   a member of a mutation batch observes the members before it. *)
let rec eval t session ~pin req =
  let ctx = t.ctx in
  match (req : Wire.request) with
  | Wire.Batch reqs ->
    (* Positional answers; an inner failure becomes an [Error] at its
       position and execution continues — journaled effects of earlier
       members are already committed (there is no rollback).  When the
       batch is a mutation it arrived here as one write job, so all
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
  | Wire.Metrics ->
    Metrics.sample_gc ();
    Wire.Ok_metrics (Metrics.snapshot Metrics.global)
  | Wire.Sync_digest ->
    (* runs as a write job (wal reads need the commits excluded), but
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
    (* a value off the wire is its text, checked at decode: read once,
       then stored and journaled as the client sent it *)
    let text =
      match value with
      | Ddf_persist.Sexp.Text text -> Some text
      | Ddf_persist.Sexp.Atom _ | Ddf_persist.Sexp.List _ -> None
    in
    let value = Ddf_persist.Codec.value_of_sexp value in
    Wire.Ok_int (Engine.install ctx ~entity ~label ~keywords ?text value)
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
     (* the sync pull verbs are commit-serialized wal reads, not
        mutations — a follower may be inspected and pulled from, it
        just may not apply a sync (its journal must stay a byte copy
        of the primary's) *)
     | Wire.Compact | Wire.Shutdown | Wire.Sync_digest | Wire.Sync_frames _ ->
       false
     | _ -> true)

let serve_request t session ~conn_id ~user ?deadline ?trace
    ?(decode_words = 0.0) req =
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
      submit_write t ?deadline ~user:!user
        (fun () ->
          metered_alloc ~decode_words req (fun () ->
              eval t session ~pin:(fun () -> Engine.pin t.ctx) req))
    end
    else begin
      (* Pure read (including a pure-read batch): pin the latest
         published view once and evaluate against it — on a pool
         domain when the server has read domains, inline otherwise.
         Either way the request takes no server lock; every member of
         a batch reads the same frozen state. *)
      let evaluate () =
        let view = (Atomic.get t.published).pub_view in
        try eval t session ~pin:(fun () -> view) req
        with e -> error_response e
      in
      if t.read_workers = [] then evaluate ()
      else
        (* No admission bound: [accept_loop] admits at most
           [max_clients] connections and each serves one request at a
           time, so at most [max_clients] pooled reads ever wait. *)
        Executor.submit t.reads ?deadline ~user:!user evaluate
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
   the state at the returned seqno whatever later commits do.  The
   on-disk checkpoint is no use here — it references this database's
   cement store.  Call from a write job. *)
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
   begin/chunk/end frames.  The save is spooled by one write job, so
   it is exactly the state at the captured seqno; the streaming itself
   runs on the connection thread, outside any group commit — a slow
   reader never blocks writes. *)
let snapshot_export_stream t fd ~user =
  let pinned = ref None in
  let resp =
    submit_write t ~user (fun () ->
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
  Mutex.unlock t.m;
  if not already then begin
    (* stop admitting writes and pool reads; queued ones still get
       answered by the group commit that is running *)
    Executor.stop t.writes;
    Executor.stop t.reads;
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
   backlog read and the fan-out registration run as one write job, so
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
    submit_write t ~user (fun () ->
        (match Journal.entries_since t.journal since with
        | Journal.Snapshot_needed ->
          (* the journal was compacted past [since]: reseed with a
             self-contained save of the state at [seq], spooled here
             under the commit and streamed in chunks by the outbox's
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
      let decode_words = meta.Wire.fm_decode_words in
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
            ( serve_request t session ~conn_id ~user ?deadline ?trace
                ~decode_words req,
              true )
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

(* At most this many refused connections are drained at a time; past
   that, a refused connection is closed at once (and its peer may read
   a reset instead of the refusal). *)
let max_drainers = 4

(* Close a connection refused at accept, after [end_refused] on a
   thread of its own so the accept loop never waits on the peer. *)
let close_refused t fd =
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  if Atomic.fetch_and_add t.drainers 1 >= max_drainers then begin
    Atomic.decr t.drainers;
    close ()
  end
  else
    let drain () =
      Fun.protect
        ~finally:(fun () ->
          close ();
          Atomic.decr t.drainers)
        (fun () -> end_refused fd)
    in
    let th = Thread.create drain () in
    Mutex.lock t.m;
    t.threads <- th :: t.threads;
    Mutex.unlock t.m

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
          close_refused t fd
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
  | Some f
    when follow = None
         && Store.Snapshot.instance_count (Store.snapshot ctx.Engine.store) = 0
    ->
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
      (* [request_timeout] caps each write's deadline, so one expiry
         check at dequeue covers both *)
      writes =
        Executor.create ~bound:max_queue ~max_wait:request_timeout
          ~what:"write" ~wait_span:"server.queue_wait" ~h_wait:h_write_wait ();
      reads =
        Executor.create ~what:"read" ~wait_span:"server.read_queue_wait"
          ~h_wait:h_read_wait ();
      read_workers = [];
      socket_path = socket; listen_fd; wake_r; wake_w;
      max_clients; default_deadline;
      drain_grace; slow_log;
      started_at = Unix.gettimeofday ();
      stopping = Atomic.make false; in_flight = Atomic.make 0;
      drainers = Atomic.make 0;
      m = Mutex.create (); conns = []; next_conn = 1;
      threads = [];
      accepter = None;
      follow; follower = None; followers = [] }
  in
  (* Fan every journaled entry out to the subscribed followers.  The
     observer fires inside the group commit right after the local wal
     has the entry (flushed to the OS; durable at the group's sync) —
     and it fires on replicated applies too, so a follower can itself
     feed followers. *)
  Journal.set_frame_observer journal (fun seq payload ->
      Metrics.set g_seq (float_of_int seq);
      match live_followers t with
      | [] -> ()
      | obs ->
        let frame =
          Wire.Ok_frame
            { seq; payload; digest = Digest.to_hex (Digest.string payload) }
        in
        (* the observer fires on the leading thread inside the write-job
           span, so the frame ships with the producing request's trace *)
        let trace = if Obs.enabled () then Obs.current_span () else None in
        List.iter (fun ob -> Replica.Outbox.push ?trace ob frame) obs);
  Metrics.set g_seq (float_of_int (Journal.seq journal));
  t.read_workers <-
    List.init read_domains (fun _ -> Domain.spawn (fun () -> read_worker t));
  t.accepter <- Some (Thread.create accept_loop t);
  (* A follower chases its primary on a background driver: every frame
     and snapshot is applied as a write job, so replication shares
     the one serialization point (and the RW lock, and auto-compaction)
     with local mutations. *)
  (match follow with
  | None -> ()
  | Some primary ->
    let apply_job what run =
      match submit_write t ~user:"replication" run with
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
  (* a follower's replication thread may still lead a commit: the
     accepter can exit before [stop] has joined it *)
  Executor.await_idle t.writes;
  Executor.stop t.reads;
  List.iter Domain.join t.read_workers;
  t.read_workers <- [];
  Journal.close t.journal;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ())

(* SIGINT and SIGTERM stop the server.  They are blocked before
   [start] creates a thread, so every server thread inherits the mask,
   and one thread takes them with [Thread.wait_signal] and calls [stop]
   (which takes [t.m]).  An OCaml handler runs only when some thread
   runs OCaml code: an idle server, every thread in a wait or a join,
   never acted on one.  A server stopped another way wakes the taker
   with a SIGTERM of its own. *)
let run ?registry ?seed ?follow ?max_clients ?request_timeout
    ?max_queue ?default_deadline ?read_domains ?drain_grace ?compact_every
    ?sync_mode ?slow_log ~db ~socket schema =
  let signals = [ Sys.sigint; Sys.sigterm ] in
  let old_mask = Thread.sigmask Unix.SIG_BLOCK signals in
  Fun.protect
    ~finally:(fun () ->
      ignore (Thread.sigmask Unix.SIG_SETMASK old_mask : int list))
  @@ fun () ->
  let t =
    start ?registry ?seed ?follow ?max_clients ?request_timeout
      ?max_queue ?default_deadline ?read_domains ?drain_grace ?compact_every
      ?sync_mode ?slow_log ~db ~socket schema
  in
  (* 0: waiting; 1: the taker got a signal; 2: the server stopped
     without one *)
  let state = Atomic.make 0 in
  let taker =
    Thread.create
      (fun () ->
        ignore (Thread.wait_signal signals : int);
        if Atomic.compare_and_set state 0 1 then stop t)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      if Atomic.compare_and_set state 0 2 then
        Unix.kill (Unix.getpid ()) Sys.sigterm;
      Thread.join taker)
    (fun () -> wait t)
