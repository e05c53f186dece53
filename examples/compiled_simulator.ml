(* Fig. 2: a tool created during the design.

   The simulator compiler turns a netlist into a compiled simulator --
   a tool instance that is itself a design object with a derivation
   history -- which then runs on different stimuli.  The crossover
   between "compile once, run fast" and the interpretive event-driven
   simulator is the shape COSMOS reported. *)

open Ddf
module E = Standard_schemas.E

let () =
  let w = Workspace.create ~user:"bryant" () in
  let ctx = Workspace.ctx w in

  let nl = Eda.Circuits.ripple_adder 8 in
  let nl_iid = Workspace.install_netlist w ~label:"adder8" nl in
  let rng = Eda.Rng.create 99 in
  let stim_small = Eda.Stimuli.for_netlist ~n:4 nl rng in
  let stim_large = Eda.Stimuli.for_netlist ~n:256 nl rng in
  let small_iid = Workspace.install_stimuli w ~label:"4 vectors" stim_small in
  let large_iid = Workspace.install_stimuli w ~label:"256 vectors" stim_large in

  (* ---- the Fig. 2 flow --------------------------------------------- *)
  print_endline "# the Fig. 2 flow: switch_performance via a compiled tool";
  let f = Standard_flows.fig2 () in
  let g = f.Standard_flows.f2_graph in
  print_string (Task_graph.to_ascii g);
  let bindings =
    Workspace.bind_catalog_tools w g
      ~already:
        [ (f.Standard_flows.f2_netlist, nl_iid);
          (f.Standard_flows.f2_stimuli, small_iid) ]
  in
  let run = Engine.execute ctx g ~bindings in
  let sim_iid = Engine.result_of run f.Standard_flows.f2_compiled_simulator in
  Format.printf "\nthe tool created during design -> #%d: %a@." sim_iid Value.pp
    (Workspace.payload w sim_iid);
  Format.printf "its own derivation: %a@."
    (Fmt.option History.pp_record)
    (History.Snapshot.derivation_of (History.snapshot (Workspace.history w))
       sim_iid);

  (* reuse the SAME compiled simulator on other stimuli: only the run
     task executes, the compile is found in the history *)
  print_endline "\n# rerun on different stimuli (the compile memo-hits)";
  let g2, perf = Task_graph.create (Workspace.schema w) E.switch_performance in
  let g2, fresh = Task_graph.expand g2 perf in
  let sim_node, stim_node =
    match fresh with [ a; b ] -> (a, b) | _ -> assert false
  in
  let run2 =
    Engine.execute ctx g2
      ~bindings:[ (sim_node, sim_iid); (stim_node, large_iid) ]
  in
  Format.printf "second run: %a@." Engine.pp_stats run2.Engine.stats;
  Format.printf "result: %a@." Value.pp
    (Workspace.payload w (Engine.result_of run2 perf));

  (* ---- a sequential design through the same flow -------------------- *)
  print_endline "\n# sequential designs: a counter through the Fig. 2 flow";
  let counter = Eda.Circuits.counter 4 in
  let counter_iid = Workspace.install_netlist w ~label:"counter4" counter in
  let clk_iid =
    Workspace.install_stimuli w ~label:"10 enabled cycles"
      (Eda.Stimuli.create
         (List.init 10 (fun _ -> [ ("en", Eda.Logic.V1) ])))
  in
  let f2 = Standard_flows.fig2 () in
  let bindings =
    Workspace.bind_catalog_tools w f2.Standard_flows.f2_graph
      ~already:
        [ (f2.Standard_flows.f2_netlist, counter_iid);
          (f2.Standard_flows.f2_stimuli, clk_iid) ]
  in
  let seq_run = Engine.execute ctx f2.Standard_flows.f2_graph ~bindings in
  let sim2 =
    Engine.result_of seq_run f2.Standard_flows.f2_compiled_simulator
  in
  (match Workspace.payload w sim2 with
  | Value.Tool (Value.Compiled_simulator c) ->
    let counts =
      Eda.Sim_compiled.run c
        (Eda.Stimuli.create (List.init 10 (fun _ -> [ ("en", Eda.Logic.V1) ])))
      |> List.map (fun outs ->
             List.fold_left
               (fun (acc, i) (_, v) ->
                 match Eda.Logic.to_bool v with
                 | Some true -> (acc lor (1 lsl i), i + 1)
                 | _ -> (acc, i + 1))
               (0, 0) outs
             |> fst)
    in
    Printf.printf "counter trajectory: %s\n"
      (String.concat " " (List.map string_of_int counts))
  | _ -> assert false);

  (* ---- compile/run crossover --------------------------------------- *)
  print_endline "\n# compiled vs event-driven: crossover in vector count";
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    ignore (Sys.opaque_identity x);
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  Printf.printf "%8s %14s %14s %14s\n" "vectors" "event (us)" "compile (us)"
    "comp-run (us)";
  let compile_us = time (fun () -> Eda.Sim_compiled.compile nl) in
  let compiled = Eda.Sim_compiled.compile nl in
  List.iter
    (fun k ->
      let stim = Eda.Stimuli.for_netlist ~n:k nl (Eda.Rng.create 5) in
      let event_us = time (fun () -> Eda.Sim_event.run nl stim) in
      let run_us = time (fun () -> Eda.Sim_compiled.run compiled stim) in
      Printf.printf "%8d %14.0f %14.0f %14.0f\n" k event_us compile_us run_us)
    [ 1; 4; 16; 64; 256 ]
