(* The design-server daemon: the typed client surface end-to-end,
   concurrent multi-client serializability, capacity and timeout
   limits, graceful shutdown and restart-replay. *)

open Ddf
module E = Standard_schemas.E

(* The CLI's first-run seed: standard tool catalog plus the default
   models and option sets. *)
let seed ctx =
  let w = Workspace.of_session (Session.of_context ctx) in
  ignore
    (Engine.install (Workspace.ctx w) ~entity:E.device_models ~label:"models"
       (Value.Device_models Eda.Device_model.default));
  ignore
    (Engine.install (Workspace.ctx w) ~entity:E.sim_options ~label:"sim opts"
       (Value.Sim_options Value.default_sim_options));
  ignore
    (Engine.install (Workspace.ctx w) ~entity:E.placement_options
       ~label:"placement opts"
       (Value.Placement_options Value.default_placement_options))

let with_server ?max_clients ?request_timeout f =
  Test_journal.with_dir @@ fun dir ->
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ?max_clients ?request_timeout ~seed ~db:dir ~socket
      Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f t ~dir ~socket)

let no_filter =
  { Store.f_entities = None; f_user = None; f_from = None; f_to = None;
    f_keywords = []; f_text = None }

let first_instance c entity =
  match
    Client.browse c { no_filter with Store.f_entities = Some [ entity ] }
  with
  | row :: _ -> row.Wire.row_iid
  | [] -> failwith ("no " ^ entity ^ " on the server")

(* A remote goal-based performance run: the section 4.1 walkthrough
   driven entirely through the wire protocol. *)
let perf_run c nl label =
  let nl_iid =
    Client.install c ~entity:E.edited_netlist ~label
      (Codec.value_to_sexp (Value.Netlist nl))
  in
  let stim_iid =
    Client.install c ~entity:E.stimuli ~label:(label ^ "-stim")
      (Codec.value_to_sexp
         (Value.Stimuli (Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs)))
  in
  let root = Client.start_goal c E.performance in
  (match List.find_opt (fun (_, e) -> e = E.circuit) (Client.expand c root) with
  | Some (nid, _) -> ignore (Client.expand c nid)
  | None -> ());
  let leaves = Client.leaves c in
  let node entity = fst (List.find (fun (_, e) -> e = entity) leaves) in
  Client.select c (node E.simulator) [ first_instance c E.simulator ];
  Client.select c (node E.netlist) [ nl_iid ];
  Client.select c (node E.stimuli) [ stim_iid ];
  Client.select c (node E.device_models) [ first_instance c E.device_models ];
  (nl_iid, Client.run c root)

let surface =
  [
    Alcotest.test_case "the typed client surface end-to-end" `Quick (fun () ->
        with_server @@ fun t ~dir:_ ~socket ->
        Client.with_client ~user:"sutton" ~socket @@ fun c ->
        Client.ping c;
        let s0 = Client.stat c in
        Alcotest.(check bool) "seeded" true (s0.Wire.st_instances > 0);
        Alcotest.(check bool) "tools listed" true
          (List.length (Client.catalog c Wire.Tools) > 0);
        let nl_iid, results = perf_run c (Eda.Circuits.c17 ()) "c17" in
        Alcotest.(check bool) "ran" true (results <> []);
        let out = List.hd results in
        (* identity travelled with the mutations *)
        let row =
          List.find
            (fun r -> r.Wire.row_iid = nl_iid)
            (Client.browse c { no_filter with Store.f_user = Some "sutton" })
        in
        Alcotest.(check string) "stamped user" "sutton"
          row.Wire.row_meta.Store.user;
        Client.annotate c ~label:"the plot" ~keywords:[ "good" ] out;
        let row =
          List.find
            (fun r -> r.Wire.row_iid = out)
            (Client.browse c { no_filter with Store.f_keywords = [ "good" ] })
        in
        Alcotest.(check string) "annotated" "the plot"
          row.Wire.row_meta.Store.label;
        Alcotest.(check bool) "trace renders" true
          (Util.contains (Client.trace c out) "performance");
        Alcotest.(check bool) "uses finds the result" true
          (List.mem out (Client.uses c nl_iid));
        let fresh, _reran, _reused = Client.refresh c out in
        Alcotest.(check bool) "refresh reuses the up-to-date result" true
          (fresh = out);
        let s1 = Client.stat c in
        Alcotest.(check bool) "history recorded" true
          (s1.Wire.st_records > s0.Wire.st_records);
        Alcotest.(check int) "ticks track instances"
          (s1.Wire.st_instances + 1) s1.Wire.st_store_tick;
        ignore t);
    Alcotest.test_case "server-side errors come back typed" `Quick (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~socket @@ fun c ->
        match Client.trace c 999 with
        | _ -> Alcotest.fail "expected a Ddf_error"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "mentions the instance" true
            (Util.contains (Error.message e) "999"));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency                                                         *)
(* ------------------------------------------------------------------ *)

let concurrency =
  [
    Alcotest.test_case "concurrent clients serialize without lost updates"
      `Quick (fun () ->
        let n_clients = 5 and n_rounds = 3 in
        let outcomes = Array.make n_clients (Error (Failure "did not run")) in
        let final =
          with_server @@ fun t ~dir:_ ~socket ->
          let worker i () =
            outcomes.(i) <-
              (try
                 Client.with_client ~user:(Printf.sprintf "u%d" i) ~socket
                 @@ fun c ->
                 let mine = ref [] in
                 for j = 1 to n_rounds do
                   let label = Printf.sprintf "u%d-n%d" i j in
                   let nl =
                     Eda.Circuits.random ~n_inputs:3 ~n_gates:5
                       (Eda.Rng.create ((i * 100) + j))
                   in
                   let nl_iid, results = perf_run c nl label in
                   mine := (nl_iid, label) :: !mine;
                   (* interleave reads and consistency refreshes *)
                   ignore (Client.browse c no_filter);
                   List.iter (fun iid -> ignore (Client.refresh c iid)) results
                 done;
                 Ok !mine
               with e -> Error e)
          in
          let threads =
            List.init n_clients (fun i -> Thread.create (worker i) ())
          in
          List.iter Thread.join threads;
          let ctx = Server.context t in
          Test_journal.state ctx
        in
        (* every client finished, and every install survived with its
           exact label and owner: no lost updates, stable iids *)
        Array.iteri
          (fun i outcome ->
            match outcome with
            | Error e ->
              Alcotest.failf "client %d failed: %s" i (Printexc.to_string e)
            | Ok mine ->
              Alcotest.(check int) "rounds" n_rounds (List.length mine);
              List.iter
                (fun (_iid, label) ->
                  Alcotest.(check bool) (label ^ " present") true
                    (Util.contains final label))
                mine)
          outcomes;
        ignore final);
    Alcotest.test_case "restart replays the multi-client history exactly"
      `Quick (fun () ->
        let dir_kept = ref "" in
        let final = ref "" in
        (Test_journal.with_dir @@ fun dir ->
         dir_kept := dir;
         let socket = Filename.concat dir "s.sock" in
         let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
         let threads =
           List.init 4 (fun i ->
               Thread.create
                 (fun () ->
                   Client.with_client ~user:(Printf.sprintf "u%d" i) ~socket
                   @@ fun c ->
                   ignore
                     (perf_run c
                        (Eda.Circuits.random ~n_inputs:3 ~n_gates:4
                           (Eda.Rng.create i))
                        (Printf.sprintf "r%d" i)))
                 ())
         in
         List.iter Thread.join threads;
         Server.stop t;
         Server.wait t;
         final := Test_journal.state (Server.context t);
         (* same --db, fresh process: bit-identical store and history *)
         Test_journal.reopened_equals dir !final);
        ignore !dir_kept);
  ]

(* ------------------------------------------------------------------ *)
(* Limits and lifecycle                                                *)
(* ------------------------------------------------------------------ *)

let limits =
  [
    Alcotest.test_case "capacity limit rejects the surplus client" `Quick
      (fun () ->
        with_server ~max_clients:1 @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"first" ~socket @@ fun c1 ->
        Client.ping c1;
        match Client.connect ~user:"second" ~socket () with
        | c2 ->
          Client.close c2;
          Alcotest.fail "expected a capacity rejection"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "says so" true
            (Util.contains (Error.message e) "capacity"));
    Alcotest.test_case "mutations time out in the write queue" `Quick
      (fun () ->
        with_server ~request_timeout:(-1.0) @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~socket @@ fun c ->
        (* reads never hit the queue *)
        Client.ping c;
        ignore (Client.browse c no_filter);
        match
          Client.install c ~entity:E.stimuli ~label:"late"
            (Codec.value_to_sexp
               (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])))
        with
        | _ -> Alcotest.fail "expected a timeout"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "says so" true
            (Util.contains (Error.message e) "timed out"));
    Alcotest.test_case "shutdown request stops the daemon and fsyncs" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
        let c = Client.connect ~user:"ops" ~socket () in
        Client.shutdown c;
        Server.wait t;
        Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
        Test_journal.reopened_equals dir
          (Test_journal.state (Server.context t)));
  ]

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Derive a new version of [iid] with the given editor instance — the
   client calls of [hercules remote edit]. *)
let remote_edit c editor iid =
  let root = Client.start_goal c E.edited_netlist in
  let fresh = Client.expand c root in
  let node entity = fst (List.find (fun (_, e) -> e = entity) fresh) in
  Client.select c (node E.netlist_editor) [ editor ];
  Client.select c (node E.netlist) [ iid ];
  List.hd (Client.run c root)

let observability =
  [
    Alcotest.test_case "every request gets a server span" `Quick (fun () ->
        let sink, events = Obs_sinks.memory () in
        Obs.set_sink sink;
        Fun.protect ~finally:Obs.clear_sink @@ fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        (Client.with_client ~user:"traced" ~socket @@ fun c ->
         Client.ping c;
         ignore (Client.browse c no_filter);
         ignore
           (Client.install c ~entity:E.stimuli ~label:"s"
              (Codec.value_to_sexp
                 (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])))));
        let spans =
          List.filter (fun e -> e.Obs.name = "server.request") (events ())
        in
        Alcotest.(check bool) "spans recorded" true (List.length spans >= 4);
        let ops =
          List.filter_map
            (fun e ->
              match List.assoc_opt "op" e.Obs.attrs with
              | Some (Obs.Str s) -> Some s
              | _ -> None)
            spans
        in
        List.iter
          (fun op ->
            Alcotest.(check bool) (op ^ " traced") true (List.mem op ops))
          [ "hello"; "ping"; "browse"; "install" ]);
    Alcotest.test_case "gc.minor_words grows across a deep remote trace"
      `Quick (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"gc" ~socket @@ fun c ->
        let editor =
          Client.install c ~entity:E.netlist_editor ~label:"rename"
            (Codec.value_to_sexp
               (Value.Tool
                  (Value.Scripted_netlist_editor
                     (Eda.Edit_script.create ~name:"r"
                        [ Eda.Edit_script.Rename "r" ]))))
        in
        let nl =
          Client.install c ~entity:E.edited_netlist ~label:"c17"
            (Codec.value_to_sexp (Value.Netlist (Eda.Circuits.c17 ())))
        in
        (* deeper than the trace's 16 indented levels *)
        let rec chain i iid =
          if i = 0 then iid else chain (i - 1) (remote_edit c editor iid)
        in
        let tip = chain 20 nl in
        let gauge name ms =
          match
            List.find_map
              (function
                | Ddf_obs.Metrics.Gauge (n, v) when n = name -> Some v
                | _ -> None)
              ms
          with
          | Some v -> v
          | None -> Alcotest.failf "no gauge %s in the daemon's metrics" name
        in
        let before = Client.metrics c in
        Alcotest.(check bool) "a 20-deep trace" true
          (Util.contains (Client.trace c tip) "[20] d?/netlist: ");
        let after = Client.metrics c in
        let grew name = gauge name after -. gauge name before in
        Alcotest.(check bool) "minor words grew" true (grew "gc.minor_words" > 0.);
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " never falls") true (grew name >= 0.))
          [ "gc.major_words"; "gc.minor_collections"; "gc.major_collections" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Pipelined batches                                                   *)
(* ------------------------------------------------------------------ *)

let stim_install label =
  Wire.Install
    {
      entity = E.stimuli;
      label;
      keywords = [];
      value = Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]));
    }

let batching =
  [
    Alcotest.test_case "batch answers positionally, writes visible" `Quick
      (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"b" ~socket @@ fun c ->
        let resps =
          Client.batch c
            [ Wire.Ping; stim_install "s1"; stim_install "s2";
              Wire.Browse no_filter ]
        in
        match resps with
        | [ Wire.Ok_unit; Wire.Ok_int i1; Wire.Ok_int i2; Wire.Ok_rows rows ] ->
          Alcotest.(check bool) "iids ascend in batch order" true (i2 > i1);
          let iids = List.map (fun r -> r.Wire.row_iid) rows in
          Alcotest.(check bool) "earlier batch writes visible to later read"
            true
            (List.mem i1 iids && List.mem i2 iids)
        | _ -> Alcotest.fail "unexpected batch response shape");
    Alcotest.test_case "a batch frame is one request to the metrics" `Quick
      (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"b" ~socket @@ fun c ->
        (* [server.requests] and [server.request_us] count frames: a
           batch is observed once, not once per member *)
        let counts () =
          List.fold_left
            (fun (reqs, observed) -> function
              | Metrics.Counter ("server.requests", n) -> (n, observed)
              | Metrics.Histogram ("server.request_us", h) ->
                (reqs, h.Metrics.hs_n)
              | _ -> (reqs, observed))
            (0, 0)
            (Metrics.snapshot Metrics.global)
        in
        let reqs0, observed0 = counts () in
        let resps =
          Client.batch c
            (List.init 32 (fun i -> stim_install (Printf.sprintf "b%d" i)))
        in
        Alcotest.(check int) "32 answers" 32 (List.length resps);
        let reqs1, observed1 = counts () in
        Alcotest.(check int) "server.requests" 1 (reqs1 - reqs0);
        Alcotest.(check int) "server.request_us observations" 1
          (observed1 - observed0));
    Alcotest.test_case "an error mid-batch does not stop the rest" `Quick
      (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"b" ~socket @@ fun c ->
        let resps =
          Client.batch c
            [ Wire.Ping;
              Wire.Install
                { entity = "no-such-entity"; label = "x"; keywords = [];
                  value =
                    Codec.value_to_sexp
                      (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])) };
              stim_install "after-the-error" ]
        in
        match resps with
        | [ Wire.Ok_unit; Wire.Error _; Wire.Ok_int _ ] -> ()
        | _ -> Alcotest.fail "expected ok/error/ok");
    Alcotest.test_case "nested and connection-level requests refused" `Quick
      (fun () ->
        with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"b" ~socket @@ fun c ->
        match Client.batch c [ Wire.Batch []; Wire.Shutdown; Wire.Ping ] with
        | [ Wire.Error _; Wire.Error _; Wire.Ok_unit ] ->
          (* the Shutdown inside the batch must NOT have shut the server
             down: the connection still answers *)
          Client.ping c
        | _ -> Alcotest.fail "expected error/error/ok");
    Alcotest.test_case "batch writes are durable across a restart" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
        let i1 =
          Client.with_client ~user:"b" ~socket @@ fun c ->
          match Client.batch c [ stim_install "keep-me" ] with
          | [ Wire.Ok_int i ] -> i
          | _ -> Alcotest.fail "unexpected batch response shape"
        in
        Server.stop t;
        Server.wait t;
        let t2 = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t2;
            Server.wait t2)
          (fun () ->
            Client.with_client ~user:"b" ~socket @@ fun c ->
            Alcotest.(check bool) "acked batch write replayed" true
              (List.exists
                 (fun r -> r.Wire.row_iid = i1)
                 (Client.browse c no_filter))));
  ]

let trace_tests =
  [
    (* what [hercules remote trace] prints is [Client.trace]'s text *)
    Alcotest.test_case "remote trace output is unchanged (golden)" `Quick
      (fun () ->
        with_server @@ fun _ ~dir:_ ~socket ->
        Client.with_client ~user:"golden" ~socket @@ fun c ->
        let nl, results = perf_run c (Eda.Circuits.c17 ()) "c17" in
        (* two edits through one editor: a shared tool, an optional
           role, a version chain *)
        let editor =
          Client.install c ~entity:E.netlist_editor ~label:"rename"
            (Codec.value_to_sexp
               (Value.Tool
                  (Value.Scripted_netlist_editor
                     (Eda.Edit_script.create ~name:"r"
                        [ Eda.Edit_script.Rename "r" ]))))
        in
        let v3 = remote_edit c editor (remote_edit c editor nl) in
        Alcotest.(check string) "performance"
          (Util.golden "remote_trace_perf.txt")
          (Client.trace c (List.hd results));
        Alcotest.(check string) "edit chain"
          (Util.golden "remote_trace_edits.txt")
          (Client.trace c v3);
        (* 24 edits of [hercules remote edit], each through an editor
           of its own: deeper than the trace's indented levels *)
        let rec chain i iid =
          if i > 24 then iid
          else
            let name = Printf.sprintf "v%d" i in
            let editor =
              Client.install c ~entity:E.netlist_editor ~label:("edit " ^ name)
                (Codec.value_to_sexp
                   (Value.Tool
                      (Value.Scripted_netlist_editor
                         (Eda.Edit_script.create ~name
                            [ Eda.Edit_script.Rename name ]))))
            in
            chain (i + 1) (remote_edit c editor iid)
        in
        Alcotest.(check string) "deep edit chain"
          (Util.golden "remote_trace_deep.txt")
          (Client.trace c (chain 1 nl)));
    Alcotest.test_case "a batched run traces and recalls over the wire" `Quick
      (fun () ->
        with_server @@ fun _ ~dir:_ ~socket ->
        Client.with_client ~user:"batch" ~socket @@ fun c ->
        let nl = Eda.Circuits.c17 () in
        let stim n seed =
          Client.install c ~entity:E.stimuli ~label:(Printf.sprintf "s%d" n)
            (Codec.value_to_sexp
               (Value.Stimuli (Eda.Stimuli.for_netlist ~n nl (Eda.Rng.create seed))))
        in
        let nl_iid =
          Client.install c ~entity:E.edited_netlist ~label:"c17"
            (Codec.value_to_sexp (Value.Netlist nl))
        in
        let root = Client.start_goal c E.performance in
        (match List.find_opt (fun (_, e) -> e = E.circuit) (Client.expand c root) with
        | Some (nid, _) -> ignore (Client.expand c nid)
        | None -> ());
        let leaves = Client.leaves c in
        let node entity = fst (List.find (fun (_, e) -> e = entity) leaves) in
        Client.select c (node E.simulator) [ first_instance c E.simulator ];
        Client.select c (node E.netlist) [ nl_iid ];
        Client.select c (node E.device_models) [ first_instance c E.device_models ];
        (* two stimuli: the batched simulator merges them into one *)
        Client.select c (node E.stimuli) [ stim 3 1; stim 5 2 ];
        let perf =
          match Client.run c root with
          | [ perf ] -> perf
          | _ -> Alcotest.fail "expected one batched result"
        in
        Alcotest.(check bool) "trace ends at the merged stimuli" true
          (Util.contains (Client.trace c perf) "(6 instances in the derivation)");
        let recalled = Client.recall c perf in
        Alcotest.(check (list int)) "the recalled flow re-runs to the result"
          [ perf ] (Client.run c recalled));
  ]

let suite =
  [
    ("server.trace", trace_tests);
    ("server.surface", surface);
    ("server.concurrency", concurrency);
    ("server.limits", limits);
    ("server.batch", batching);
    ("server.obs", observability);
  ]
