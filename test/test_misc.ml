(* Coverage for smaller APIs: renderings, hashes, the RNG, engine cost
   accounting, file round trips. *)

open Ddf

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let rng_tests =
  [
    t "int respects bounds" (fun () ->
        let rng = Eda.Rng.create 1 in
        for _ = 1 to 1000 do
          let x = Eda.Rng.int rng 7 in
          check Alcotest.bool "in range" true (x >= 0 && x < 7)
        done);
    t "float is in [0,1)" (fun () ->
        let rng = Eda.Rng.create 2 in
        for _ = 1 to 1000 do
          let x = Eda.Rng.float rng in
          check Alcotest.bool "in range" true (x >= 0.0 && x < 1.0)
        done);
    t "same seed, same stream" (fun () ->
        let a = Eda.Rng.create 3 and b = Eda.Rng.create 3 in
        for _ = 1 to 50 do
          check Alcotest.int "lockstep" (Eda.Rng.int a 1000) (Eda.Rng.int b 1000)
        done);
    t "copy forks the stream" (fun () ->
        let a = Eda.Rng.create 4 in
        ignore (Eda.Rng.int a 10);
        let b = Eda.Rng.copy a in
        check Alcotest.int "same next" (Eda.Rng.int a 1000) (Eda.Rng.int b 1000));
    t "shuffle permutes" (fun () ->
        let rng = Eda.Rng.create 5 in
        let l = List.init 20 Fun.id in
        let s = Eda.Rng.shuffle rng l in
        check Alcotest.(slist int compare) "same elements" l s);
    Util.expect_exn "int rejects non-positive bounds"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> Eda.Rng.int (Eda.Rng.create 6) 0);
    t "rough uniformity" (fun () ->
        let rng = Eda.Rng.create 7 in
        let buckets = Array.make 4 0 in
        for _ = 1 to 4000 do
          let i = Eda.Rng.int rng 4 in
          buckets.(i) <- buckets.(i) + 1
        done;
        Array.iter
          (fun n -> check Alcotest.bool "within 20%" true (n > 800 && n < 1200))
          buckets);
  ]

let rendering_tests =
  [
    t "waveform plot shows transitions" (fun () ->
        let nl = Eda.Circuits.inverter () in
        let stim =
          Eda.Stimuli.create ~interval_ps:500
            [ [ ("in", Eda.Logic.V0) ]; [ ("in", Eda.Logic.V1) ] ]
        in
        let r = Eda.Sim_event.run ~settle_ps:500 nl stim in
        let p = Eda.Plot.of_simulation ~title:"inv" r [ "in"; "out" ] in
        check Alcotest.bool "low glyph" true (Util.contains p.Eda.Plot.rendering "_");
        check Alcotest.bool "high glyph" true (Util.contains p.Eda.Plot.rendering "#"));
    t "schema dot output is well-formed" (fun () ->
        let dot = Schema.to_dot Standard_schemas.odyssey in
        check Alcotest.bool "digraph" true (Util.contains dot "digraph");
        check Alcotest.bool "dashed optional arcs" true
          (Util.contains dot "style=dashed"));
    t "task graph dot marks tool edges bold" (fun () ->
        let f = Standard_flows.fig3 () in
        check Alcotest.bool "bold" true
          (Util.contains (Task_graph.to_dot f.Standard_flows.f3_graph)
             "style=bold"));
    t "sta path report prints" (fun () ->
        let report =
          Eda.Performance.critical_path_report (Eda.Circuits.c17 ())
        in
        let text = Fmt.str "%a" Eda.Performance.pp_path report in
        check Alcotest.bool "has start" true (Util.contains text "(start)");
        check Alcotest.bool "has via" true (Util.contains text "via "));
    t "value summaries are informative" (fun () ->
        check Alcotest.bool "netlist" true
          (Util.contains
             (Value.summary (Value.Netlist (Eda.Circuits.c17 ())))
             "c17");
        check Alcotest.bool "blob" true
          (Util.contains
             (Value.summary (Value.Blob { blob_kind = "draft"; text = "hi" }))
             "draft"));
  ]

let engine_accounting_tests =
  [
    t "costs cover exactly the executed invocations" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let layout_iid =
          Workspace.install_layout w (Eda.Layout.place (Eda.Circuits.c17 ()))
        in
        let g, ext = Task_graph.create (Workspace.schema w) Standard_schemas.E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let extractor, lay =
          match fresh with [ a; b ] -> (a, b) | _ -> assert false
        in
        let run =
          Engine.execute ctx g
            ~bindings:
              [ (extractor, Workspace.tool w Standard_schemas.E.extractor);
                (lay, layout_iid) ]
        in
        check Alcotest.int "one cost entry"
          (run.Engine.stats.Engine.executed + run.Engine.stats.Engine.composed)
          (List.length run.Engine.costs);
        List.iter
          (fun (_, c) -> check Alcotest.bool "positive" true (c > 0))
          run.Engine.costs);
    t "latest_version finds the newest" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let v0 = Workspace.install_netlist w (Eda.Circuits.c17 ()) in
        let latest_version iid =
          History.Snapshot.latest_version
            (History.snapshot ctx.Engine.history) iid
        in
        check Alcotest.int "own latest" v0 (latest_version v0);
        let session =
          Workspace.install_editor_session w
            (Eda.Edit_script.create [ Eda.Edit_script.Rename "v2" ])
        in
        let g, out = Task_graph.create (Workspace.schema w) Standard_schemas.E.edited_netlist in
        let g, fresh = Task_graph.expand g out in
        let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let run = Engine.execute ctx g ~bindings:[ (editor, session); (src, v0) ] in
        let v1 = Engine.result_of run out in
        check Alcotest.int "newest" v1 (latest_version v0));
  ]

let file_tests =
  [
    t "blif files round-trip on disk" (fun () ->
        let path = Filename.temp_file "ddf_test" ".blif" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let nl = Eda.Circuits.full_adder () in
            Eda.Blif.to_file path nl;
            let nl2 = Eda.Blif.of_file path in
            check Alcotest.bool "equivalent" true
              (Eda.Lvs.compare_netlists nl nl2).Eda.Lvs.equivalent));
    t "workspace files round-trip on disk" (fun () ->
        let path = Filename.temp_file "ddf_test" ".ddf" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let w = Workspace.create () in
            ignore (Workspace.install_netlist w (Eda.Circuits.c17 ()));
            Persist.save_file (Workspace.session w) path;
            let seq, _, s2 = Persist.load_file Standard_schemas.odyssey path in
            check Alcotest.int "a save outside a journal names seq 0" 0 seq;
            let count store =
              Store.Snapshot.instance_count (Store.snapshot store)
            in
            check Alcotest.int "instances"
              (count (Workspace.store w))
              (count (Session.context s2).Engine.store)));
  ]

let suite =
  [
    ("misc.rng", rng_tests);
    ("misc.rendering", rendering_tests);
    ("misc.accounting", engine_accounting_tests);
    ("misc.files", file_tests);
  ]

let sequential_bench_tests =
  [
    t "s27 simulates deterministically" (fun () ->
        let nl = Eda.Circuits.s27 () in
        let rng = Eda.Rng.create 12 in
        let vectors =
          List.init 50 (fun _ ->
              List.map
                (fun n -> (n, Eda.Logic.of_bool (Eda.Rng.bool rng)))
                nl.Eda.Netlist.primary_inputs)
        in
        let a = Eda.Netlist.run_cycles nl vectors in
        let b = Eda.Netlist.run_cycles nl vectors in
        check Alcotest.bool "deterministic" true (a = b);
        check Alcotest.bool "binary outputs" true
          (List.for_all
             (List.for_all (fun (_, v) -> v <> Eda.Logic.VX))
             a);
        (* compiled agrees *)
        let stim = Eda.Stimuli.create vectors in
        check Alcotest.bool "compiled agrees" true
          (Eda.Sim_compiled.run (Eda.Sim_compiled.compile nl) stim = a));
    t "vcd export is well-formed" (fun () ->
        let nl = Eda.Circuits.full_adder () in
        let stim = Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs in
        let r = Eda.Sim_event.run ~settle_ps:1000 nl stim in
        let vcd =
          Eda.Vcd.to_string r.Eda.Sim_event.waveform
            [ "a"; "b"; "cin"; "sum"; "cout" ]
        in
        check Alcotest.bool "header" true
          (Util.contains vcd "$enddefinitions");
        check Alcotest.bool "var decls" true (Util.contains vcd "$var wire 1");
        check Alcotest.bool "time marks" true (Util.contains vcd "#");
        (* changes are time-ordered *)
        let times =
          String.split_on_char '\n' vcd
          |> List.filter_map (fun line ->
                 if String.length line > 1 && line.[0] = '#' then
                   int_of_string_opt (String.sub line 1 (String.length line - 1))
                 else None)
        in
        check Alcotest.bool "sorted" true
          (List.sort compare times = times));
    t "vcd identifiers are distinct" (fun () ->
        let ids = List.init 300 Eda.Vcd.identifier in
        check Alcotest.int "unique" 300
          (List.length (List.sort_uniq compare ids)));
    Util.expect_exn "vcd rejects unknown nets"
      (function Eda.Vcd.Vcd_error _ -> true | _ -> false)
      (fun () -> Eda.Vcd.to_string Eda.Waveform.empty [ "ghost" ]);
  ]

let suite = suite @ [ ("misc.sequential_bench", sequential_bench_tests) ]

let scheduler_tests =
  [
    t "LPT beats or ties the other heuristics on skewed costs" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        let g, _ = Standard_flows.wide_flow 6 in
        let bindings =
          Workspace.bind_catalog_tools w g
            ~already:
              (List.mapi
                 (fun i nid ->
                   ( nid,
                     Workspace.install_layout w
                       (Eda.Layout.place
                          ~name_suffix:(Printf.sprintf "_h%d" i)
                          (Eda.Circuits.ripple_adder (1 + (i * 3)))) ))
                 (Workspace.find_nodes g Standard_schemas.E.layout))
        in
        let run = Engine.execute ~memo:false ctx g ~bindings in
        let makespan h =
          (Parallel.schedule ~heuristic:h g ~costs:run.Engine.costs ~machines:2)
            .Parallel.makespan_us
        in
        check Alcotest.bool "lpt <= spt" true
          (makespan Parallel.Longest_first <= makespan Parallel.Shortest_first);
        check Alcotest.bool "lpt <= fifo" true
          (makespan Parallel.Longest_first <= makespan Parallel.Fifo));
    Util.expect_exn "ordering count overflows are reported"
      (function Baselines.Freedom.Too_many _ -> true | _ -> false)
      (fun () ->
        Baselines.Freedom.legal_orderings ~cap:1000
          (fst (Standard_flows.wide_flow 16)));
    t "removing an unused entity revalidates" (fun () ->
        let s =
          Schema.add_entity Standard_schemas.odyssey (Schema.tool "scratch" [])
        in
        let s = Schema.remove_entity s "scratch" in
        check Alcotest.bool "gone" false (Schema.mem s "scratch"));
    t "pre-bound inner nodes are not recomputed" (fun () ->
        let w = Workspace.create () in
        let ctx = Workspace.ctx w in
        (* compute an extraction, then reuse the result as a binding for
           the inner node of a larger flow *)
        let layout_iid =
          Workspace.install_layout w (Eda.Layout.place (Eda.Circuits.c17 ()))
        in
        let g, ext = Task_graph.create (Workspace.schema w) Standard_schemas.E.extracted_netlist in
        let g, fresh = Task_graph.expand g ext in
        let extractor, lay = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
        let run =
          Engine.execute ctx g
            ~bindings:
              [ (extractor, Workspace.tool w Standard_schemas.E.extractor);
                (lay, layout_iid) ]
        in
        let extracted = Engine.result_of run ext in
        (* grow the flow upward and bind the extraction node directly *)
        let g, _verification, fresh2 =
          Task_graph.expand_up ~role:"candidate" g ext
            ~consumer:Standard_schemas.E.verification
        in
        let bindings =
          (ext, extracted)
          :: List.filter_map
               (fun nid ->
                 let e = Task_graph.entity_of g nid in
                 if e = Standard_schemas.E.verifier then
                   Some (nid, Workspace.tool w Standard_schemas.E.verifier)
                 else if e = Standard_schemas.E.netlist then
                   Some (nid, extracted)
                 else None)
               fresh2
        in
        let run2 = Engine.execute ~memo:false ctx g ~bindings in
        (* only the verification executed; the extraction was pre-bound *)
        check Alcotest.int "one task" 1 run2.Engine.stats.Engine.executed);
    t "sexp pretty and compact forms parse the same" (fun () ->
        let text =
          Sexp.to_string
            (Codec.value_to_sexp (Value.Netlist (Eda.Circuits.full_adder ())))
        in
        let sexp = Sexp.of_string text in
        check Alcotest.bool "compact round-trip" true
          (Sexp.of_string (Sexp.to_string ~pretty:false sexp) = sexp));
  ]

let suite = suite @ [ ("misc.scheduler", scheduler_tests) ]
