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
    rows;

  (* Each timed run gets a fresh workspace, built outside the timer: on
     a reused one every run after the first is a memo hit.  A serial
     run alternates with each domain run, so a slow phase of a shared
     host falls on both, and 256 vectors make a branch outweigh a
     domain spawn. *)
  let vectors = 256 and runs = 5 in
  Bench_util.section
    (Printf.sprintf
       "real multicore execution (Engine.execute ~domains, wall-clock ms; 4 \
        simulation branches of %d vectors, median of %d fresh runs)"
       vectors runs);
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host provides %d core(s)%s\n" cores
    (if cores <= 1 then
       " -- wall-clock speedup is impossible here; the machine-pool \
        simulation above carries the Fig. 6 result"
     else "");
  let timed domains =
    let w, g, bindings = Workloads.bound_sim_flow ~vectors 4 in
    let t0 = Unix.gettimeofday () in
    let run = Engine.execute ~domains (Workspace.ctx w) g ~bindings in
    ((Unix.gettimeofday () -. t0) *. 1e3, run)
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let rows =
    List.map
      (fun domains ->
        let pairs =
          List.init runs (fun _ ->
              let serial_ms, serial = timed 1 in
              let ms, run = timed domains in
              if run <> serial then
                failwith
                  (Printf.sprintf "E6: ~domains:%d differs from serial" domains);
              (serial_ms, ms))
        in
        let serial_ms = median (List.map fst pairs)
        and ms = median (List.map snd pairs) in
        [ string_of_int domains; Printf.sprintf "%.1f" serial_ms;
          Printf.sprintf "%.1f" ms; Printf.sprintf "%.2f" (serial_ms /. ms) ])
      [ 1; 2; 4 ]
  in
  Bench_util.print_table [ "domains"; "serial ms"; "domains ms"; "speedup" ] rows
