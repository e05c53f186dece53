(* The MVCC read path: snapshot isolation of pinned views, multi-domain
   read/write stress, and the server's zero-lock read invariant. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let no_filter = Store.any_filter

(* A workspace with [n] installed netlists; returns the iids. *)
let seeded n =
  let w = Workspace.create ~user:"mvcc" () in
  let iids =
    List.init n (fun i ->
        Workspace.install_netlist w
          ~label:(Printf.sprintf "nl%d" i)
          (Eda.Circuits.random ~n_inputs:3 ~n_gates:(4 + (i mod 5))
             (Eda.Rng.create (i + 1))))
  in
  (w, iids)

(* Everything a pinned view answers about the store and one instance's
   version lineage, flattened so structural equality is the whole
   comparison. *)
let observe (v : Engine.view) probe =
  let st = v.Engine.v_store in
  let browse = Store.Snapshot.browse st no_filter in
  let versions = History.Snapshot.versions v.Engine.v_history probe in
  let metas =
    List.map
      (fun iid ->
        let m = Store.Snapshot.meta_of st iid in
        (iid, Store.Snapshot.entity_of st iid, m.Store.label, m.Store.comment))
      browse
  in
  (browse, versions, metas, Store.Snapshot.instance_count st)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation (qcheck)                                         *)
(* ------------------------------------------------------------------ *)

(* Pin a view, then hammer the live store from another domain; the
   pinned view's answers must be identical before, during and after
   the burst. *)
let isolation_prop (n, burst) =
  let w, iids = seeded (max 1 n) in
  let ctx = Workspace.ctx w in
  let probe = List.hd iids in
  let v = Session.pin (Workspace.session w) in
  let before = observe v probe in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to burst do
          ignore
            (Workspace.install_netlist w
               ~label:(Printf.sprintf "burst%d" i)
               (Eda.Circuits.random ~n_inputs:2 ~n_gates:3
                  (Eda.Rng.create (1000 + i))) : Store.iid);
          Store.annotate ctx.Engine.store probe
            ~comment:(Printf.sprintf "scribble %d" i) ()
        done)
  in
  (* reads racing the burst: every one must equal the pinned state *)
  let during_ok = ref true in
  for _ = 1 to 20 do
    if observe v probe <> before then during_ok := false
  done;
  Domain.join writer;
  let after = observe v probe in
  (* the live store, meanwhile, must have moved on *)
  let moved =
    Store.instance_count ctx.Engine.store
    = (let b, _, _, _ = before in
       List.length b)
      + burst
  in
  !during_ok && after = before && moved

let isolation_gen = QCheck2.Gen.(pair (int_range 1 8) (int_range 1 30))

(* ------------------------------------------------------------------ *)
(* Multi-domain stress                                                 *)
(* ------------------------------------------------------------------ *)

(* One writer domain commits while several reader domains continuously
   pin fresh views and walk them.  Within one pinned view nothing may
   ever be torn: browse, the per-entity index, metadata and the
   instance count must agree with each other. *)
let stress_test () =
  let w, _ = seeded 4 in
  let ctx = Workspace.ctx w in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          ignore
            (Workspace.install_netlist w
               ~label:(Printf.sprintf "w%d" !i)
               (Eda.Circuits.random ~n_inputs:2 ~n_gates:3
                  (Eda.Rng.create !i)) : Store.iid)
        done)
  in
  let reader () =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let v = Engine.pin ctx in
          let st = v.Engine.v_store in
          let browse = Store.Snapshot.browse st no_filter in
          let count = Store.Snapshot.instance_count st in
          (* a pinned view never changes under the reader's feet *)
          if List.length browse <> count then Atomic.incr failures;
          if Store.Snapshot.browse st no_filter <> browse then
            Atomic.incr failures;
          List.iter
            (fun iid ->
              (* every listed instance is fully resolvable in the
                 same view — no half-installed rows *)
              let entity = Store.Snapshot.entity_of st iid in
              let by_entity = Store.Snapshot.instances_of_entity st entity in
              if not (List.mem iid by_entity) then Atomic.incr failures;
              ignore (Store.Snapshot.meta_of st iid : Store.meta))
            browse;
          (* history side: every record's outputs exist in the paired
             store view (capture ordering invariant) *)
          List.iter
            (fun (r : History.record) ->
              List.iter
                (fun (_, out) ->
                  if not (Store.Snapshot.mem st out) then
                    Atomic.incr failures)
                r.History.outputs)
            (History.Snapshot.records v.Engine.v_history)
        done)
  in
  let readers = List.init 3 (fun _ -> reader ()) in
  Unix.sleepf 0.5;
  Atomic.set stop true;
  Domain.join writer;
  List.iter Domain.join readers;
  check Alcotest.int "no torn reads" 0 (Atomic.get failures)

(* ------------------------------------------------------------------ *)
(* The server's zero-lock read path                                    *)
(* ------------------------------------------------------------------ *)

let counter_value name ms =
  List.fold_left
    (fun acc m ->
      match m with
      | Ddf_obs.Metrics.Counter (n, v) when n = name -> v
      | _ -> acc)
    0 ms

let with_read_server ~read_domains f =
  Test_journal.with_dir @@ fun dir ->
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ~seed:Test_server.seed ~read_domains ~db:dir ~socket
      Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket)

(* Under read-only load the commit lock is never taken: the
   lock-acquisition counter must not move by even one. *)
let zero_lock_reads () =
  with_read_server ~read_domains:2 @@ fun socket ->
  Client.with_client ~user:"reader" ~socket @@ fun c ->
  (* a couple of mutations first, so the counter is known non-zero *)
  let nl = Eda.Circuits.full_adder () in
  let iid =
    Client.install c ~entity:E.edited_netlist ~label:"fa"
      (Codec.value_to_sexp (Value.Netlist nl))
  in
  Client.annotate c iid ~comment:"warm";
  let locks_before =
    counter_value "server.lock_acquisitions" (Client.metrics c)
  in
  check Alcotest.bool "mutations did take the commit lock" true
    (locks_before > 0);
  for _ = 1 to 25 do
    ignore (Client.browse c no_filter : Ddf_wire.Wire.instance_row list);
    ignore (Client.stat c : Ddf_wire.Wire.stat);
    ignore (Client.catalog c Ddf_wire.Wire.Entities : string list);
    ignore (Client.uses c iid : Store.iid list)
  done;
  let ms = Client.metrics c in
  check Alcotest.int "lock counter flat under read-only load" locks_before
    (counter_value "server.lock_acquisitions" ms);
  check Alcotest.bool "reads went through the domain pool" true
    (counter_value "server.pool_reads" ms > 0)

(* Pooled reads still see every acknowledged write (read-your-writes
   through the published view). *)
let pooled_read_your_writes () =
  with_read_server ~read_domains:2 @@ fun socket ->
  Client.with_client ~user:"rw" ~socket @@ fun c ->
  for i = 1 to 10 do
    let iid =
      Client.install c ~entity:E.edited_netlist
        ~label:(Printf.sprintf "nl%d" i)
        (Codec.value_to_sexp
           (Value.Netlist
              (Eda.Circuits.random ~n_inputs:2 ~n_gates:3 (Eda.Rng.create i))))
    in
    let rows = Client.browse c no_filter in
    check Alcotest.bool
      (Printf.sprintf "install %d visible to the next read" i)
      true
      (List.exists (fun r -> r.Ddf_wire.Wire.row_iid = iid) rows)
  done

let histogram_count name ms =
  List.fold_left
    (fun acc m ->
      match m with
      | Ddf_obs.Metrics.Histogram (n, h) when n = name -> h.Ddf_obs.Metrics.hs_n
      | _ -> acc)
    0 ms

(* The read pool has no admission bound: the server admits at most
   [max_clients] connections and each has one request in flight, so
   at most [max_clients] pooled reads ever wait.  Four clients at
   [max_clients:4] keep every slot busy with one read domain. *)
let pooled_reads_at_capacity () =
  Test_journal.with_dir @@ fun dir ->
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ~seed:Test_server.seed ~max_clients:4 ~read_domains:1
      ~db:dir ~socket Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
  @@ fun () ->
  let clients =
    List.init 4 (fun i ->
        Client.connect ~user:(Printf.sprintf "reader%d" i) ~socket ())
  in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  let c = List.hd clients in
  let editor =
    Client.install c ~entity:E.netlist_editor ~label:"rename"
      (Codec.value_to_sexp
         (Value.Tool
            (Value.Scripted_netlist_editor
               (Eda.Edit_script.create ~name:"r" [ Eda.Edit_script.Rename "r" ]))))
  in
  let rec chain i iid =
    if i = 0 then iid else chain (i - 1) (Test_server.remote_edit c editor iid)
  in
  let tip =
    chain 100
      (Client.install c ~entity:E.edited_netlist ~label:"c17"
         (Codec.value_to_sexp (Value.Netlist (Eda.Circuits.c17 ()))))
  in
  check Alcotest.bool "a 100-deep chain" true
    (Util.contains (Client.trace c tip) "(102 instances in the derivation)");
  let before = Client.metrics c in
  let answered = Atomic.make 0 in
  let reader c =
    Thread.create
      (fun () ->
        for i = 1 to 50 do
          if i mod 2 = 0 then ignore (Client.trace c tip : string)
          else ignore (Client.browse c no_filter : Ddf_wire.Wire.instance_row list);
          Atomic.incr answered
        done)
      ()
  in
  List.iter Thread.join (List.map reader clients);
  let after = Client.metrics c in
  let delta name = counter_value name after - counter_value name before in
  check Alcotest.int "every read answered" 200 (Atomic.get answered);
  check Alcotest.int "nothing shed" 0 (delta "server.shed");
  check Alcotest.int "lock counter flat" 0 (delta "server.lock_acquisitions");
  check Alcotest.bool "the reads ran on the pool" true
    (delta "server.pool_reads" >= 200);
  check Alcotest.bool "every pooled read's queue wait observed" true
    (histogram_count "server.read_queue_wait_us" after
     >= counter_value "server.pool_reads" after)

let suite =
  [
    ( "mvcc.snapshot",
      [
        Util.qcheck ~count:15 "pinned views are isolated from write bursts"
          isolation_gen isolation_prop;
        t "multi-domain stress: no torn reads" stress_test;
      ] );
    ( "mvcc.server",
      [
        t "read path takes zero locks" zero_lock_reads;
        t "pooled reads see acknowledged writes" pooled_read_your_writes;
        t "pooled reads at max_clients are never shed" pooled_reads_at_capacity;
      ] );
  ]
