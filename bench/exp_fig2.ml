(* E2 / Fig. 2: a tool created during the design -- the compiled
   simulator, and its crossover against interpretive simulation. *)

open Ddf
open Bechamel
module E = Standard_schemas.E

let run () =
  Bench_util.header "E2" "Fig. 2: tool created during a design (COSMOS)";
  Bench_util.paper_claim
    "a simulator compiled for a given netlist is itself a design object; \
     compile once, then run cheaply on different stimuli";

  (* structural regeneration: the Fig. 2 flow through the engine *)
  let w = Workspace.create ~user:"bench" () in
  let ctx = Workspace.ctx w in
  let nl = Eda.Circuits.ripple_adder 8 in
  let nl_iid = Workspace.install_netlist w nl in
  let stim_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.for_netlist ~n:32 nl (Eda.Rng.create 4))
  in
  let f = Standard_flows.fig2 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f2_graph
      ~already:
        [ (f.Standard_flows.f2_netlist, nl_iid);
          (f.Standard_flows.f2_stimuli, stim_iid) ]
  in
  let run1 = Engine.execute ctx f.Standard_flows.f2_graph ~bindings in
  let tool_iid = Engine.result_of run1 f.Standard_flows.f2_compiled_simulator in
  Printf.printf "flow executed: %d tasks; compiled simulator is instance #%d\n"
    run1.Engine.stats.Engine.executed tool_iid;
  Printf.printf "the tool has a derivation record: %b\n"
    (History.Snapshot.derivation_of (History.snapshot (Workspace.history w))
       tool_iid
     <> None);
  (* run on new stimuli: the compile memo-hits *)
  let stim2 =
    Workspace.install_stimuli w
      (Eda.Stimuli.for_netlist ~n:64 nl (Eda.Rng.create 5))
  in
  let bindings2 =
    List.map
      (fun (n, i) -> if n = f.Standard_flows.f2_stimuli then (n, stim2) else (n, i))
      bindings
  in
  let run2 = Engine.execute ctx f.Standard_flows.f2_graph ~bindings:bindings2 in
  Printf.printf
    "rerun on new stimuli: %d executed, %d memo hits (the compile is reused)\n"
    run2.Engine.stats.Engine.executed run2.Engine.stats.Engine.memo_hits;

  (* crossover sweep: event-driven vs compile+run.  Each repetition
     times the compile and every row once, so a slow phase of the host
     touches every row alike; a row names a winner only when its two
     interquartile ranges are disjoint. *)
  let reps = 21 in
  Bench_util.section
    (Printf.sprintf
       "crossover sweep (adder8, wall-clock us: median and IQR of %d \
        interleaved repetitions)"
       reps);
  let nl = Eda.Circuits.ripple_adder 8 in
  let compiled = Eda.Sim_compiled.compile nl in
  let sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let stims =
    List.map (fun k -> Eda.Stimuli.for_netlist ~n:k nl (Eda.Rng.create 7)) sizes
  in
  let time f = Bench_util.time_us ~runs:1 f in
  let samples =
    List.init reps (fun _ ->
        let compile = time (fun () -> Eda.Sim_compiled.compile nl) in
        ( compile,
          List.map
            (fun stim ->
              let event = time (fun () -> Eda.Sim_event.run nl stim) in
              let crun = time (fun () -> Eda.Sim_compiled.run compiled stim) in
              (event, crun, compile +. crun))
            stims ))
  in
  let spread xs =
    (Bench_util.quantile xs 0.25, Bench_util.quantile xs 0.5,
     Bench_util.quantile xs 0.75)
  in
  let _, compile_us, _ = spread (List.map fst samples) in
  let rows =
    List.mapi
      (fun i k ->
        let pick f = List.map (fun (_, row) -> f (List.nth row i)) samples in
        let e_lo, event, e_hi = spread (pick (fun (e, _, _) -> e)) in
        let _, crun, _ = spread (pick (fun (_, c, _) -> c)) in
        let t_lo, total, t_hi = spread (pick (fun (_, _, t) -> t)) in
        [
          string_of_int k;
          Printf.sprintf "%.0f" event;
          Printf.sprintf "%.0f" (e_hi -. e_lo);
          Printf.sprintf "%.0f" compile_us;
          Printf.sprintf "%.0f" crun;
          Printf.sprintf "%.0f" total;
          Printf.sprintf "%.0f" (t_hi -. t_lo);
          (if t_hi < e_lo then "compiled" else if e_hi < t_lo then "event"
           else "tie");
        ])
      sizes
  in
  Bench_util.print_table
    [ "vectors"; "event"; "IQR"; "compile"; "comp-run"; "comp-total"; "IQR";
      "winner" ]
    rows;

  Bench_util.section "per-operation latency";
  let stim1 = Eda.Stimuli.for_netlist ~n:1 nl (Eda.Rng.create 9) in
  Bench_util.run_bechamel ~name:"fig2"
    [
      Test.make ~name:"compile adder8" (Staged.stage (fun () -> Eda.Sim_compiled.compile nl));
      Test.make ~name:"compiled run, 1 vector"
        (Staged.stage (fun () -> Eda.Sim_compiled.run (Eda.Sim_compiled.compile nl) stim1));
      Test.make ~name:"event-driven, 1 vector"
        (Staged.stage (fun () -> Eda.Sim_event.run nl stim1));
    ]
