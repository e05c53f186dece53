(* E6 / Fig. 6: parallel execution of disjoint branches. *)

open Ddf

let run () =
  Bench_util.header "E6" "Fig. 6: separate branches execute in parallel";
  Bench_util.paper_claim
    "disjoint branches in the flow can be executed in parallel, possibly \
     on different machines";

  Bench_util.section "the Fig. 6 flow";
  let f6 = Standard_flows.fig6 () in
  Printf.printf "%s" (Task_graph.to_ascii f6.Standard_flows.f6_graph);
  Printf.printf "disjoint branch groups under the root: %d\n"
    (List.length
       (List.filter
          (fun (_, s) -> Task_graph.Int_set.cardinal s > 1)
          (Task_graph.disjoint_branches f6.Standard_flows.f6_graph
             f6.Standard_flows.f6_verification)));

  Bench_util.section "makespan on a simulated machine pool (us)";
  let rows =
    List.concat_map
      (fun width ->
        let w, g, bindings = Workloads.bound_wide_flow width in
        let run = Engine.execute ~memo:false (Workspace.ctx w) g ~bindings in
        List.map
          (fun machines ->
            let s = Parallel.schedule g ~costs:run.Engine.costs ~machines in
            [
              string_of_int width;
              string_of_int machines;
              string_of_int s.Parallel.serial_us;
              string_of_int s.Parallel.makespan_us;
              Printf.sprintf "%.2f" (Parallel.speedup s);
            ])
          [ 1; 2; 4; 8 ])
      [ 2; 4; 8; 16 ]
  in
  Bench_util.print_table
    [ "branches"; "machines"; "serial us"; "makespan us"; "speedup" ]
    rows;

  Bench_util.section "scheduling heuristics on a skewed workload";
  let w, gs, bindings = Workloads.bound_skewed_flow () in
  let run = Engine.execute ~memo:false (Workspace.ctx w) gs ~bindings in
  let rows =
    List.concat_map
      (fun machines ->
        List.map
          (fun h ->
            let s =
              Parallel.schedule ~heuristic:h gs ~costs:run.Engine.costs ~machines
            in
            [ string_of_int machines; Parallel.heuristic_name h;
              string_of_int s.Parallel.makespan_us;
              Printf.sprintf "%.2f" (Parallel.speedup s) ])
          [ Parallel.Longest_first; Parallel.Shortest_first; Parallel.Fifo ])
      [ 2; 4 ]
  in
  Bench_util.print_table
    [ "machines"; "heuristic"; "makespan us"; "speedup" ]
    rows
