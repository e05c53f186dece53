(* Tests for the execution engine, parallel scheduling and consistency
   maintenance. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let expect_exec_error name f =
  Util.expect_exn name
    (function Ddf.Error.Ddf_error _ -> true | _ -> false)
    f

(* Shared setup: a workspace plus the fig5 flow fully bound. *)
let fig5_setup () =
  let w = Workspace.create () in
  let reference = Eda.Circuits.full_adder () in
  let layout_iid =
    Workspace.install_layout w ~label:"fa layout" (Eda.Layout.place reference)
  in
  let reference_iid = Workspace.install_netlist w ~label:"fa ref" reference in
  let stimuli_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.exhaustive reference.Eda.Netlist.primary_inputs)
  in
  let f = Standard_flows.fig5 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f5_graph
      ~already:
        [
          (f.Standard_flows.f5_layout, layout_iid);
          (f.Standard_flows.f5_stimuli, stimuli_iid);
          (f.Standard_flows.f5_reference, reference_iid);
          (f.Standard_flows.f5_device_models, Workspace.default_device_models w);
        ]
  in
  (w, f, bindings)

(* A flow whose sim_options leaf fills only an optional role and stays
   unbound. *)
let optional_leaf_flow () =
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let nl = Eda.Circuits.c17 () in
  let nl_iid = Workspace.install_netlist w nl in
  let stim_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs)
  in
  let g, perf = Task_graph.create (Workspace.schema w) E.performance in
  let g, _ = Task_graph.expand g perf in  (* includes sim_options *)
  let circuit = Workspace.find_nodes g E.circuit in
  let g, _ = Task_graph.expand g (List.hd circuit) in
  let bindings =
    Workspace.bind_catalog_tools w g
      ~already:
        ((List.hd (Workspace.find_nodes g E.netlist), nl_iid)
        :: (List.hd (Workspace.find_nodes g E.stimuli), stim_iid)
        :: [ (List.hd (Workspace.find_nodes g E.device_models),
              Workspace.default_device_models w) ])
  in
  let run = Engine.execute ctx g ~bindings in
  check Alcotest.bool "performance produced" true
    (Engine.result_of run perf > 0)

let engine_tests =
  [
    t "fig5 executes end to end" (fun () ->
        let w, f, bindings = fig5_setup () in
        let run = Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings in
        check Alcotest.int "executed" 4 run.Engine.stats.Engine.executed;
        check Alcotest.int "composed" 1 run.Engine.stats.Engine.composed;
        let verdict =
          Workspace.verification_of w
            (Engine.result_of run f.Standard_flows.f5_verification)
        in
        check Alcotest.bool "layout matches reference" true
          verdict.Eda.Lvs.equivalent);
    t "memoization reuses history on identical reruns" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let r1 = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let r2 = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        check Alcotest.int "nothing re-executed" 0 r2.Engine.stats.Engine.executed;
        check Alcotest.int "nothing re-composed" 0 r2.Engine.stats.Engine.composed;
        check Alcotest.bool "memo hits" true (r2.Engine.stats.Engine.memo_hits > 0);
        check Alcotest.int "same result"
          (Engine.result_of r1 f.Standard_flows.f5_performance)
          (Engine.result_of r2 f.Standard_flows.f5_performance));
    t "memo can be disabled" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let _ = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let r2 = Engine.execute ~memo:false ctx f.Standard_flows.f5_graph ~bindings in
        check Alcotest.int "all re-executed" 4 r2.Engine.stats.Engine.executed);
    expect_exec_error "unbound mandatory leaf" (fun () ->
        let w, f, bindings = fig5_setup () in
        let bindings =
          List.filter (fun (n, _) -> n <> f.Standard_flows.f5_layout) bindings
        in
        Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings);
    Util.expect_exn "binding with an incompatible instance"
      (function
        | Ddf.Error.Ddf_error { code = `Type_error; _ } -> true | _ -> false)
      (fun () ->
        let w, f, bindings = fig5_setup () in
        let stim =
          Workspace.install_stimuli w (Eda.Stimuli.exhaustive [ "a" ])
        in
        let before = Sync.fingerprint (Workspace.ctx w) in
        let bindings =
          List.map
            (fun (n, i) ->
              if n = f.Standard_flows.f5_layout then (n, stim) else (n, i))
            bindings
        in
        match
          Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings
        with
        | run -> run
        | exception e ->
          (* refused before any tool runs *)
          check Alcotest.string "nothing ran" before
            (Sync.fingerprint (Workspace.ctx w));
          raise e);
    t "optional leaves may stay unbound" optional_leaf_flow;
    t "fan-out runs once per selected instance" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.full_adder () in
        let l1 = Workspace.install_layout w (Eda.Layout.place nl) in
        let l2 =
          Workspace.install_layout w
            (Eda.Layout.place ~name_suffix:"_b" (Eda.Circuits.c17 ()))
        in
        let g, ext = Task_graph.create (Workspace.schema w) E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let extractor, lay = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let runs =
          Engine.execute_fanout ctx g
            ~bindings:
              [ (extractor, [ Workspace.tool w E.extractor ]); (lay, [ l1; l2 ]) ]
        in
        check Alcotest.int "two runs" 2 (List.length runs);
        let outs =
          List.map (fun r -> Engine.result_of r ext) runs |> List.sort_uniq compare
        in
        check Alcotest.int "distinct results" 2 (List.length outs));
    expect_exec_error "fan-out explosion is rejected" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.full_adder () in
        let iids =
          List.init 2 (fun i ->
              Workspace.install_layout w
                (Eda.Layout.place ~name_suffix:(Printf.sprintf "_%d" i) nl))
        in
        let g, ext = Task_graph.create (Workspace.schema w) E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let extractor, lay = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        Engine.execute_fanout ~max_combinations:1 ctx g
          ~bindings:
            [ (extractor, [ Workspace.tool w E.extractor ]); (lay, iids) ]);
    t "typing rejects mismatched installs" (fun () ->
        let w = Workspace.create () in
        match
          Engine.install (Workspace.ctx w) ~entity:E.edited_netlist
            (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))
        with
        | _ -> Alcotest.fail "expected Type_mismatch"
        | exception Typing.Type_mismatch _ -> ());
    t "history records one record per invocation" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let _ = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        check Alcotest.int "five records" 5 (History.size (Workspace.history w)));
  ]

let parallel_tests =
  [
    t "schedule invariants over machine counts" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let g, roots = Standard_flows.wide_flow 8 in
        ignore roots;
        let bindings =
          Workspace.bind_catalog_tools w g
            ~already:
              (List.map
                 (fun nid ->
                   ( nid,
                     Workspace.install_layout w
                       (Eda.Layout.place
                          ~name_suffix:(Printf.sprintf "_%d" nid)
                          (Eda.Circuits.full_adder ())) ))
                 (Workspace.find_nodes g E.layout))
        in
        let run = Engine.execute ~memo:false ctx g ~bindings in
        let s1 = Parallel.schedule g ~costs:run.Engine.costs ~machines:1 in
        let s2 = Parallel.schedule g ~costs:run.Engine.costs ~machines:2 in
        let s4 = Parallel.schedule g ~costs:run.Engine.costs ~machines:4 in
        check Alcotest.int "serial = makespan on 1" s1.Parallel.serial_us
          s1.Parallel.makespan_us;
        check Alcotest.bool "2 <= 1" true
          (s2.Parallel.makespan_us <= s1.Parallel.makespan_us);
        check Alcotest.bool "4 <= 2" true
          (s4.Parallel.makespan_us <= s2.Parallel.makespan_us);
        check Alcotest.bool "near-linear on independent tasks" true
          (Parallel.speedup s4 > 3.0));
    t "schedule respects dependencies" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ~memo:false ctx f.Standard_flows.f5_graph ~bindings in
        let s = Parallel.schedule f.Standard_flows.f5_graph
                  ~costs:run.Engine.costs ~machines:4 in
        (* the performance must start after the extraction finishes *)
        let find pred =
          List.find (fun (e : Parallel.entry) -> pred e.Parallel.outputs)
            s.Parallel.entries
        in
        let extraction =
          find (fun outs -> List.mem f.Standard_flows.f5_extracted outs)
        in
        let simulation =
          find (fun outs -> List.mem f.Standard_flows.f5_performance outs)
        in
        check Alcotest.bool "ordered" true
          (simulation.Parallel.start_us >= extraction.Parallel.finish_us));
  ]

let consistency_tests =
  [
    t "refresh is a no-op when sources are unchanged" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let perf = Engine.result_of run f.Standard_flows.f5_performance in
        let report = Consistency.refresh ctx perf in
        check Alcotest.int "same instance" perf report.Consistency.fresh_instance;
        check Alcotest.int "nothing reran" 0 report.Consistency.reran);
    t "refresh reruns only the stale sub-flow" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let plot = Engine.result_of run f.Standard_flows.f5_plot in
        (* edit the reference netlist: the verification branch goes
           stale, the plot branch does not *)
        let reference = List.assoc f.Standard_flows.f5_reference bindings in
        let session =
          Workspace.install_editor_session w
            (Eda.Edit_script.create
               [ Eda.Edit_script.Insert_buffer { net = "x1"; gname = "bz" } ])
        in
        let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
        let g, fresh = Task_graph.expand g out in
        let editor, source = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let _ =
          Engine.execute ctx g ~bindings:[ (editor, session); (source, reference) ]
        in
        (* plot does not depend on the reference: refresh finds it fresh *)
        let report = Consistency.refresh ctx plot in
        check Alcotest.int "plot unchanged" plot report.Consistency.fresh_instance;
        (* verification does: refresh re-runs it on the new version *)
        let verification = Engine.result_of run f.Standard_flows.f5_verification in
        let report = Consistency.refresh ctx verification in
        check Alcotest.bool "new verification" true
          (report.Consistency.fresh_instance <> verification);
        check Alcotest.int "exactly one task reran" 1 report.Consistency.reran;
        check Alcotest.int "one source rebound" 1
          (List.length report.Consistency.rebound));
    t "derived_status tracks staleness" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl_iid = Workspace.install_netlist w (Eda.Circuits.full_adder ()) in
        check Alcotest.bool "never" true
          (Consistency.derived_status ctx ~source:nl_iid
             ~goal_entity:E.synthesized_layout
           = Consistency.Never_extracted);
        let g, lay = Task_graph.create (Workspace.schema w) E.synthesized_layout in
        let g, fresh = Task_graph.expand ~include_optional:false g lay in
        let placer, nln = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let _ =
          Engine.execute ctx g
            ~bindings:[ (placer, Workspace.tool w E.placer); (nln, nl_iid) ]
        in
        (match
           Consistency.derived_status ctx ~source:nl_iid
             ~goal_entity:E.synthesized_layout
         with
        | Consistency.Up_to_date _ -> ()
        | Consistency.Out_of_date _ | Consistency.Never_extracted ->
          Alcotest.fail "expected up to date"));
  ]

let suite =
  [
    ("exec.engine", engine_tests);
    ("exec.parallel", parallel_tests);
    ("exec.consistency", consistency_tests);
  ]

let decompose_tests =
  [
    t "decomposing a circuit yields its parts" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let circuit = Engine.result_of run f.Standard_flows.f5_circuit in
        let parts = Engine.decompose ctx circuit in
        check Alcotest.int "two parts" 2 (List.length parts);
        check Alcotest.bool "netlist part" true
          (List.exists
             (fun (e, _) -> e = E.netlist || e = E.extracted_netlist)
             parts);
        let h = Workspace.history w and store = Workspace.store w in
        let schema = Workspace.schema w in
        List.iter
          (fun (entity, part) ->
            (* the decomposition is in the history: each part chains
               back to the composite *)
            check Alcotest.bool (entity ^ " chains to the composite") true
              (List.mem circuit (History.ancestor_instances h part));
            (* but no task of the schema made it: a leaf of its trace,
               the same by both routes *)
            let g, _, binding = History.trace h store schema part in
            check Alcotest.int (entity ^ " traces as a leaf") 1
              (List.length binding);
            check Alcotest.string (entity ^ " traces alike")
              (Printf.sprintf "%s(1 instances in the derivation)\n"
                 (Task_graph.to_ascii g))
              (History.trace_text h store schema part))
          parts);
    expect_exec_error "decomposing a non-composite fails" (fun () ->
        let w = Workspace.create () in
        let iid = Workspace.install_netlist w (Eda.Circuits.c17 ()) in
        Engine.decompose (Workspace.ctx w) iid);
  ]

let recall_tests =
  [
    t "recall restores the flow with its selections" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let perf = Engine.result_of run f.Standard_flows.f5_performance in
        let s = Workspace.session w in
        let root = Session.recall s perf in
        let flow = Session.current_flow s in
        check Alcotest.string "root is the performance" E.performance
          (Task_graph.entity_of flow root);
        (* every leaf carries the original selection, so re-running is
           a pure memo hit returning the same instance *)
        let results = Session.run s root in
        check (Alcotest.list Alcotest.int) "same instance" [ perf ] results);
    t "recalled task can be modified and re-executed" (fun () ->
        let w, f, bindings = fig5_setup () in
        let ctx = Workspace.ctx w in
        let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
        let perf = Engine.result_of run f.Standard_flows.f5_performance in
        let s = Workspace.session w in
        let root = Session.recall s perf in
        (* modify: select fresh stimuli for the stimuli leaf *)
        let flow = Session.current_flow s in
        let stim_node =
          List.hd (Workspace.find_nodes flow E.stimuli)
        in
        let stim2 =
          Workspace.install_stimuli w
            (Eda.Stimuli.walking_ones [ "a"; "b"; "cin" ])
        in
        Session.select s stim_node [ stim2 ];
        let results = Session.run s root in
        check Alcotest.bool "new result" true (List.hd results <> perf));
  ]

let suite =
  suite
  @ [ ("exec.decompose", decompose_tests); ("exec.recall", recall_tests) ]

(* Tools as data input to other tools (section 3.3): the optimizer
   taking a compiled simulator as its evaluator. *)
let tools_as_data_tests =
  [
    t "optimizer accepts a compiled simulator as evaluator" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.ripple_adder 4 in
        let nl_iid = Workspace.install_netlist w nl in
        let optimizers = Workspace.install_optimizers w in
        let hill = List.assoc Eda.Optimize.Hill_climb optimizers in
        (* flow: optimized_netlist <- (optimizer, netlist,
           evaluator=compiled_simulator <- (compiler, netlist)) *)
        let g, out = Task_graph.create (Workspace.schema w) E.optimized_netlist in
        let g, fresh = Task_graph.expand ~include_optional:false g out in
        let opt_node, src_node =
          match fresh with [ a; b ] -> (a, b) | _ -> assert false
        in
        let g, eval_node = Task_graph.add_node g E.compiled_simulator in
        let g = Task_graph.connect g ~user:out ~role:"evaluator" ~dep:eval_node in
        let g, fresh = Task_graph.expand g eval_node in
        let compiler_node =
          List.find
            (fun n -> Task_graph.entity_of g n = E.simulator_compiler)
            fresh
        in
        let nl_node =
          List.find (fun n -> Task_graph.entity_of g n = E.netlist) fresh
        in
        let run =
          Engine.execute ctx g
            ~bindings:
              [ (opt_node, hill); (src_node, nl_iid); (nl_node, nl_iid);
                (compiler_node, Workspace.tool w E.simulator_compiler) ]
        in
        let optimized = Workspace.netlist_of w (Engine.result_of run out) in
        (* the result still computes the same function *)
        let stim = Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs in
        let responses n =
          Eda.Sim_compiled.run (Eda.Sim_compiled.compile n) stim
        in
        check Alcotest.bool "function preserved" true
          (List.map (List.map snd) (responses nl)
           = List.map (List.map snd) (responses optimized));
        (* the history shows the simulator flowing INTO the optimizer *)
        let r = History.derivation_of (Workspace.history w)
                  (Engine.result_of run out) in
        match r with
        | Some r ->
          check Alcotest.bool "evaluator recorded" true
            (List.mem_assoc "evaluator" r.History.inputs)
        | None -> Alcotest.fail "no derivation");
    t "activity-aware cost differs from the static one" (fun () ->
        let nl = Eda.Circuits.ripple_adder 4 in
        let compiled = Eda.Sim_compiled.compile nl in
        let stim = Eda.Stimuli.for_netlist ~n:64 nl (Eda.Rng.create 3) in
        let toggles = Eda.Sim_compiled.run_trace compiled stim in
        let activity net =
          match List.assoc_opt net toggles with Some n -> n | None -> 0
        in
        let static = Eda.Optimize.cost Eda.Optimize.default_objective nl in
        let dynamic =
          Eda.Optimize.cost_with_activity Eda.Optimize.default_objective
            ~activity nl
        in
        check Alcotest.bool "higher with activity" true (dynamic > static));
    t "toggle counts are sane" (fun () ->
        let nl = Eda.Circuits.inverter () in
        let compiled = Eda.Sim_compiled.compile nl in
        let stim =
          Eda.Stimuli.create
            [ [ ("in", Eda.Logic.V0) ]; [ ("in", Eda.Logic.V1) ];
              [ ("in", Eda.Logic.V0) ] ]
        in
        let toggles = Eda.Sim_compiled.run_trace compiled stim in
        check Alcotest.int "out toggles twice" 2 (List.assoc "out" toggles));
  ]

let suite = suite @ [ ("exec.tools_as_data", tools_as_data_tests) ]

(* Batched encapsulations (section 4.1): multi-selected stimuli merge
   into one simulator call instead of fanning out. *)
let batching_tests =
  [
    t "batched simulator runs once over merged stimuli" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.c17 () in
        let nl_iid = Workspace.install_netlist w nl in
        let stim n seed =
          Workspace.install_stimuli w
            (Eda.Stimuli.for_netlist ~n nl (Eda.Rng.create seed))
        in
        let s1 = stim 4 1 and s2 = stim 6 2 in
        let g, perf = Task_graph.create (Workspace.schema w) E.performance in
        let g, _ = Task_graph.expand ~include_optional:false g perf in
        let circuit = List.hd (Workspace.find_nodes g E.circuit) in
        let g, _ = Task_graph.expand g circuit in
        let single role iid = (List.hd (Workspace.find_nodes g role), [ iid ]) in
        let runs =
          Engine.execute_fanout ctx g
            ~bindings:
              [
                single E.simulator (Workspace.tool w E.simulator);
                single E.netlist nl_iid;
                single E.device_models (Workspace.default_device_models w);
                (List.hd (Workspace.find_nodes g E.stimuli), [ s1; s2 ]);
              ]
        in
        (* one combination, not two *)
        check Alcotest.int "one run" 1 (List.length runs);
        let perf_iid = Engine.result_of (List.hd runs) perf in
        let p = Workspace.performance_of w perf_iid in
        check Alcotest.int "all vectors in one call" 10
          p.Eda.Performance.vectors_simulated;
        (* the merged stimuli instance is a recorded design object *)
        match History.derivation_of (Workspace.history w) perf_iid with
        | Some r ->
          let merged = List.assoc "stimuli" r.History.inputs in
          (match History.derivation_of (Workspace.history w) merged with
          | Some m ->
            check Alcotest.int "two parts" 2 (List.length m.History.inputs)
          | None -> Alcotest.fail "merge not recorded")
        | None -> Alcotest.fail "no derivation");
    t "non-batched tools still fan out" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let lay n = Workspace.install_layout w
            (Eda.Layout.place ~name_suffix:(Printf.sprintf "_%d" n)
               (Eda.Circuits.full_adder ())) in
        let l1 = lay 1 and l2 = lay 2 in
        let g, ext = Task_graph.create (Workspace.schema w) E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let extractor, layn = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let runs =
          Engine.execute_fanout ctx g
            ~bindings:
              [ (extractor, [ Workspace.tool w E.extractor ]); (layn, [ l1; l2 ]) ]
        in
        check Alcotest.int "two runs" 2 (List.length runs));
    t "batched merge memoizes" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.c17 () in
        let nl_iid = Workspace.install_netlist w nl in
        let s1 = Workspace.install_stimuli w
            (Eda.Stimuli.for_netlist ~n:2 nl (Eda.Rng.create 1)) in
        let s2 = Workspace.install_stimuli w
            (Eda.Stimuli.for_netlist ~n:2 nl (Eda.Rng.create 2)) in
        let g, perf = Task_graph.create (Workspace.schema w) E.performance in
        let g, _ = Task_graph.expand ~include_optional:false g perf in
        let circuit = List.hd (Workspace.find_nodes g E.circuit) in
        let g, _ = Task_graph.expand g circuit in
        let bindings =
          [
            (List.hd (Workspace.find_nodes g E.simulator), [ Workspace.tool w E.simulator ]);
            (List.hd (Workspace.find_nodes g E.netlist), [ nl_iid ]);
            (List.hd (Workspace.find_nodes g E.device_models),
             [ Workspace.default_device_models w ]);
            (List.hd (Workspace.find_nodes g E.stimuli), [ s1; s2 ]);
          ]
        in
        let r1 = Engine.execute_fanout ctx g ~bindings in
        let before = Store.instance_count (Workspace.store w) in
        let r2 = Engine.execute_fanout ctx g ~bindings in
        check Alcotest.int "no new instances" before
          (Store.instance_count (Workspace.store w));
        check Alcotest.int "same result"
          (Engine.result_of (List.hd r1) perf)
          (Engine.result_of (List.hd r2) perf));
    t "a batched result traces by both routes and recalls" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let nl = Eda.Circuits.c17 () in
        let nl_iid = Workspace.install_netlist w nl in
        let stim n seed =
          Workspace.install_stimuli w
            (Eda.Stimuli.for_netlist ~n nl (Eda.Rng.create seed))
        in
        let g, perf = Task_graph.create (Workspace.schema w) E.performance in
        let g, _ = Task_graph.expand ~include_optional:false g perf in
        let circuit = List.hd (Workspace.find_nodes g E.circuit) in
        let g, _ = Task_graph.expand g circuit in
        let node e = List.hd (Workspace.find_nodes g e) in
        let runs =
          Engine.execute_fanout ctx g
            ~bindings:
              [
                (node E.simulator, [ Workspace.tool w E.simulator ]);
                (node E.netlist, [ nl_iid ]);
                (node E.device_models, [ Workspace.default_device_models w ]);
                (node E.stimuli, [ stim 3 1; stim 5 2 ]);
              ]
        in
        let perf_iid = Engine.result_of (List.hd runs) perf in
        let h = Workspace.history w and store = Workspace.store w in
        let schema = Workspace.schema w in
        (* the merged stimuli were recorded with roles part0 and part1,
           which a source does not declare: the trace ends at them *)
        let tg, _, binding = History.trace h store schema perf_iid in
        let text = History.trace_text h store schema perf_iid in
        check Alcotest.string "text and graph routes agree"
          (Printf.sprintf "%s(%d instances in the derivation)\n"
             (Task_graph.to_ascii tg) (List.length binding))
          text;
        check Alcotest.bool "the merge is a leaf" true
          (Util.contains text "d/stimuli: stimuli#");
        check Alcotest.int "instances" 6 (List.length binding);
        let s = Workspace.session w in
        let root = Session.recall s perf_iid in
        check (Alcotest.list Alcotest.int) "the recalled flow re-runs"
          [ perf_iid ] (Session.run s root));
  ]

let suite = suite @ [ ("exec.batching", batching_tests) ]

let parallel_memo_tests =
  [
    t "a raising tool keeps the branches committed before it" (fun () ->
        (* three branches: an extraction, a tool with no encapsulation,
           and another extraction after it *)
        let schema =
          Schema.add_entity Standard_schemas.odyssey
            (Schema.tool "mystery_tool" [])
        in
        let schema =
          Schema.add_entity schema
            (Schema.entity "mystery_output"
               [ Schema.functional "mystery_tool" ])
        in
        let ctx = Engine.create_context schema in
        let extractor = Engine.install_tool ctx E.extractor in
        let mystery =
          Engine.install ctx ~entity:"mystery_tool"
            (Value.Tool (Value.Builtin "?"))
        in
        let layout circuit =
          Engine.install ctx ~entity:E.layout
            (Value.Layout (Eda.Layout.place circuit))
        in
        let l1 = layout (Eda.Circuits.c17 ())
        and l2 = layout (Eda.Circuits.full_adder ()) in
        let branch (g, bindings) entity bind =
          let g, out = Task_graph.add_node g entity in
          let g, fresh = Task_graph.expand g out in
          (g, List.map2 bind fresh (List.map (Task_graph.entity_of g) fresh)
              @ bindings)
        in
        let extraction l nid entity =
          (nid, if entity = E.extractor then extractor else l)
        in
        let g, bindings =
          branch (Task_graph.empty schema, []) E.extracted_netlist
            (extraction l1)
        in
        let g, bindings =
          branch (g, bindings) "mystery_output" (fun nid _ -> (nid, mystery))
        in
        let g, bindings =
          branch (g, bindings) E.extracted_netlist (extraction l2)
        in
        let raised =
          match Engine.execute ctx g ~bindings with
          | _ -> false
          | exception _ -> true
        in
        check Alcotest.bool "the mystery tool raises" true raised;
        check Alcotest.int "after committing the first branch" 1
          (History.size ctx.Engine.history));
    t "critical path report is consistent" (fun () ->
        let nl = Eda.Circuits.ripple_adder 4 in
        let report = Eda.Performance.critical_path_report nl in
        (match report with
        | [] -> Alcotest.fail "empty path"
        | first :: _ ->
          check Alcotest.bool "starts at a start point" true
            (first.Eda.Performance.ps_gate = None
            && first.Eda.Performance.ps_arrival_ps = 0));
        let last = List.nth report (List.length report - 1) in
        check Alcotest.int "ends at the critical path"
          (Eda.Performance.critical_path nl)
          last.Eda.Performance.ps_arrival_ps;
        (* arrivals increase along the path *)
        let rec monotone = function
          | a :: (b :: _ as rest) ->
            a.Eda.Performance.ps_arrival_ps <= b.Eda.Performance.ps_arrival_ps
            && monotone rest
          | [ _ ] | [] -> true
        in
        check Alcotest.bool "monotone" true (monotone report));
    t "sequential timing ends at a flop input" (fun () ->
        let nl = Eda.Circuits.counter 4 in
        let report = Eda.Performance.critical_path_report nl in
        let last = List.nth report (List.length report - 1) in
        check Alcotest.bool "ends at a d-net" true
          (List.exists
             (fun (f : Eda.Netlist.flop) -> f.Eda.Netlist.d = last.Eda.Performance.ps_net)
             nl.Eda.Netlist.flops));
  ]

let suite = suite @ [ ("exec.parallel_memo", parallel_memo_tests) ]

(* The circuit composition over [n] netlists, every one sharing the
   workspace's device model, then a memo-hit rerun of the newest: the
   minor words that rerun allocates, and whether it executed nothing
   and returned the circuit its first run made. *)
let shared_model_rerun n =
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let g, circuit = Task_graph.create (Workspace.schema w) E.circuit in
  let g, _ = Task_graph.expand g circuit in
  let node e = List.hd (Workspace.find_nodes g e) in
  let model = Workspace.default_device_models w in
  let flow netlist =
    Engine.execute ctx g
      ~bindings:[ (node E.device_models, model); (node E.netlist, netlist) ]
  in
  let nl = Eda.Circuits.c17 () in
  let netlists = List.init n (fun _ -> Workspace.install_netlist w nl) in
  let runs = List.map flow netlists in
  let newest = List.nth netlists (n - 1) and made = List.nth runs (n - 1) in
  ignore (flow newest);
  let before = Gc.minor_words () in
  let rerun = flow newest in
  let words = Gc.minor_words () -. before in
  ( words,
    rerun.Engine.stats.Engine.memo_hits = 1
    && rerun.Engine.stats.Engine.composed = 0
    && Engine.result_of rerun circuit = Engine.result_of made circuit )

let memo_cost_tests =
  [
    t "a memo hit costs no more when the shared model has 100x the uses"
      (fun () ->
        let w10, hit10 = shared_model_rerun 10 in
        let w1000, hit1000 = shared_model_rerun 1000 in
        check Alcotest.bool "10 netlists: a memo hit" true hit10;
        check Alcotest.bool "1,000 netlists: a memo hit" true hit1000;
        if w1000 > 1.5 *. w10 then
          Alcotest.failf "a rerun allocates %.0f words at 1,000 uses, %.0f at 10"
            w1000 w10);
    expect_exec_error "a 10^12-combination selection is refused before it is built"
      (fun () ->
        let w, f, bindings = fig5_setup () in
        let wide =
          [ f.Standard_flows.f5_layout; f.Standard_flows.f5_reference;
            f.Standard_flows.f5_device_models; f.Standard_flows.f5_extractor ]
        in
        let bindings =
          List.map
            (fun (nid, iid) ->
              (nid, if List.mem nid wide then List.init 1000 (fun _ -> iid) else [ iid ]))
            bindings
        in
        let before = Gc.minor_words () in
        match
          Engine.execute_fanout (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings
        with
        | runs -> runs
        | exception e ->
          let words = Gc.minor_words () -. before in
          if words > 100_000. then
            Alcotest.failf "the refusal allocated %.0f words" words;
          raise e);
  ]

let suite = suite @ [ ("exec.memo_cost", memo_cost_tests) ]

let registry_tests =
  [
    t "tool subtypes inherit encapsulations" (fun () ->
        (* add fast_extractor <: extractor to the schema; its instances
           are served by the extractor encapsulation unchanged (A4) *)
        let schema =
          Schema.add_entity Standard_schemas.odyssey
            (Schema.tool ~parent:E.extractor "fast_extractor" [])
        in
        let ctx = Engine.create_context schema in
        let fast =
          Engine.install ctx ~entity:"fast_extractor" ~label:"turbo"
            (Value.Tool (Value.Builtin "extractor:turbo"))
        in
        let layout_iid =
          Engine.install ctx ~entity:E.edited_layout
            (Value.Layout (Eda.Layout.place (Eda.Circuits.c17 ())))
        in
        let g, ext = Task_graph.create schema E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let tool_node, lay =
          match fresh with [ a; b ] -> (a, b) | _ -> assert false
        in
        (* specialize the tool node to the subtype and bind the fast one *)
        let g = Task_graph.specialize g tool_node "fast_extractor" in
        let run =
          Engine.execute ctx g ~bindings:[ (tool_node, fast); (lay, layout_iid) ]
        in
        check Alcotest.int "extraction ran" 1 run.Engine.stats.Engine.executed);
    Util.expect_exn "unregistered tools are reported"
      (function Ddf_tools.Encapsulation.Tool_error _ -> true | _ -> false)
      (fun () ->
        let schema =
          Schema.add_entity Standard_schemas.odyssey
            (Schema.tool "mystery_tool" [])
        in
        let schema =
          Schema.add_entity schema
            (Schema.entity "mystery_output"
               [ Schema.functional "mystery_tool" ])
        in
        let ctx = Engine.create_context schema in
        let tool =
          Engine.install ctx ~entity:"mystery_tool"
            (Value.Tool (Value.Builtin "?"))
        in
        let g, out = Task_graph.create schema "mystery_output" in
        let g, fresh = Task_graph.expand g out in
        let tn = List.hd fresh in
        Engine.execute ctx g ~bindings:[ (tn, tool) ]);
  ]

let suite = suite @ [ ("exec.registry", registry_tests) ]

(* The decode cache: values rest in the store as text and are decoded
   through a fixed table of slots keyed by content hash, shared by
   every domain.  A read must always give what a fresh parse of the
   stored text gives, whatever else shares or takes over its slot. *)
let cache_setup n =
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let iids =
    List.init n (fun i ->
        if i mod 3 = 0 then
          Workspace.install_netlist w
            (Eda.Circuits.random ~n_inputs:3 ~n_gates:(4 + (i mod 5))
               (Eda.Rng.create i))
        else
          Workspace.install_stimuli w
            (Eda.Stimuli.exhaustive [ Printf.sprintf "in%d" i; "x" ]))
  in
  let fresh iid = Codec.value_of_text (Store.payload ctx.Engine.store iid) in
  (ctx, Array.of_list iids, fresh)

(* The slot a hash takes: the engine's indexing, over its 256 slots. *)
let slot_of hash = Hashtbl.hash hash land 255

let decode_cache_tests =
  [
    t "a slot collision returns the right value" (fun () ->
        let ctx, iids, fresh = cache_setup 300 in
        let hash iid = Store.hash_of ctx.Engine.store iid in
        let by_slot = Hashtbl.create 256 in
        let pair =
          Array.fold_left
            (fun found iid ->
              match found with
              | Some _ -> found
              | None -> (
                let s = slot_of (hash iid) in
                match Hashtbl.find_opt by_slot s with
                | Some other when hash other <> hash iid -> Some (other, iid)
                | _ ->
                  Hashtbl.replace by_slot s iid;
                  None))
            None iids
        in
        match pair with
        | None -> Alcotest.fail "300 hashes over 256 slots must collide"
        | Some (a, b) ->
          List.iter
            (fun iid ->
              check Alcotest.bool
                (Printf.sprintf "#%d reads as its text" iid)
                true
                (Engine.payload ctx iid = fresh iid))
            [ a; b; a; a; b; b; a ]);
    t "domains reading shared and colliding hashes agree with a parse"
      (fun () ->
        let ctx, iids, fresh = cache_setup 300 in
        let expected = Array.map fresh iids in
        let view = Engine.pin ctx in
        let n = Array.length iids in
        let reader stride () =
          let wrong = ref 0 in
          for round = 0 to 5 do
            for k = 0 to n - 1 do
              let i = (k * stride + round) mod n in
              if Engine.decode view.Engine.v_store iids.(i) <> expected.(i) then
                incr wrong
            done
          done;
          !wrong
        in
        let domains = List.map (fun s -> Domain.spawn (reader s)) [ 1; 7; 13 ] in
        let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
        check Alcotest.int "no domain read a wrong value" 0 wrong);
  ]

let suite = suite @ [ ("exec.decode_cache", decode_cache_tests) ]
