(* Parallel task execution (Fig. 6) on a simulated machine pool:
   deterministic list scheduling of a flow's invocations, using the
   costs observed during a real run -- the makespan/speedup numbers of
   experiment E6.  The run itself is serial ([Engine.execute]). *)

open Ddf_graph
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics

let m_schedules = Metrics.counter "parallel.schedules"

type entry = {
  outputs : int list;
  machine : int;
  start_us : int;
  finish_us : int;
}

type schedule = {
  entries : entry list;
  makespan_us : int;
  serial_us : int;
  machines : int;
}

exception Schedule_error of string

(* Ready-queue ordering: which invocation gets a machine first. *)
type heuristic =
  | Longest_first   (* classic LPT list scheduling *)
  | Shortest_first
  | Fifo            (* declaration order *)

let heuristic_name = function
  | Longest_first -> "longest-first"
  | Shortest_first -> "shortest-first"
  | Fifo -> "fifo"

let schedule ?(heuristic = Longest_first) g ~costs ~machines =
  if machines < 1 then raise (Schedule_error "need at least one machine");
  Metrics.incr m_schedules;
  Obs.with_span ~cat:"parallel"
    ~attrs:
      [
        ("machines", Obs.Int machines);
        ("heuristic", Obs.Str (heuristic_name heuristic));
      ]
    "parallel.schedule"
  @@ fun () ->
  let invocations = Task_graph.invocations g in
  (* keep only invocations that actually ran (memo hits cost nothing) *)
  let cost_of outputs = List.assoc_opt outputs costs in
  let timed =
    List.filter
      (fun (inv : Task_graph.invocation) ->
        cost_of inv.Task_graph.outputs <> None)
      invocations
  in
  let deps_all = Task_graph.invocation_deps timed in
  let n = List.length timed in
  let inv_arr = Array.of_list timed in
  let deps = Array.of_list deps_all in
  let cost =
    Array.map
      (fun (inv : Task_graph.invocation) ->
        match cost_of inv.Task_graph.outputs with
        | Some c -> c
        | None -> 0)
      inv_arr
  in
  let finish = Array.make n (-1) in
  let machine_free = Array.make machines 0 in
  let entries = ref [] in
  let done_count = ref 0 in
  let scheduled = Array.make n false in
  while !done_count < n do
    (* ready = unscheduled with all predecessors finished *)
    let ready =
      List.filter
        (fun i ->
          (not scheduled.(i))
          && List.for_all (fun d -> finish.(d) >= 0) deps.(i))
        (List.init n Fun.id)
    in
    if ready = [] then raise (Schedule_error "cyclic invocation graph");
    (* deterministic ready-queue order under the chosen heuristic *)
    let ready =
      match heuristic with
      | Longest_first ->
        List.sort (fun a b -> compare (cost.(b), a) (cost.(a), b)) ready
      | Shortest_first ->
        List.sort (fun a b -> compare (cost.(a), a) (cost.(b), b)) ready
      | Fifo -> ready
    in
    List.iter
      (fun i ->
        let avail =
          List.fold_left (fun m d -> max m finish.(d)) 0 deps.(i)
        in
        (* earliest-free machine *)
        let best = ref 0 in
        for m = 1 to machines - 1 do
          if machine_free.(m) < machine_free.(!best) then best := m
        done;
        let m = !best in
        let start = max avail machine_free.(m) in
        let stop = start + cost.(i) in
        machine_free.(m) <- stop;
        finish.(i) <- stop;
        scheduled.(i) <- true;
        incr done_count;
        entries :=
          { outputs = inv_arr.(i).Task_graph.outputs; machine = m;
            start_us = start; finish_us = stop }
          :: !entries)
      ready
  done;
  let makespan_us = Array.fold_left max 0 machine_free in
  let serial_us = Array.fold_left ( + ) 0 cost in
  { entries = List.rev !entries; makespan_us; serial_us; machines }

let speedup s =
  if s.makespan_us = 0 then 1.0
  else float_of_int s.serial_us /. float_of_int s.makespan_us

(* Render a simulated schedule as a Chrome trace: one lane (tid) per
   machine, one complete duration event per scheduled invocation --
   the Fig. 6 Gantt chart, loadable in chrome://tracing / Perfetto. *)
let chrome_trace_of_schedule ?label_of s =
  let label =
    match label_of with
    | Some f -> f
    | None ->
      fun outputs ->
        "task " ^ String.concat "," (List.map string_of_int outputs)
  in
  let events =
    List.map
      (fun e ->
        {
          Obs.kind = Obs.Complete (float_of_int (e.finish_us - e.start_us));
          name = label e.outputs;
          cat = "schedule";
          ts_us = float_of_int e.start_us;
          logical = -1;
          tid = e.machine;
          span = None;
          attrs = [ ("machine", Obs.Int e.machine) ];
        })
      s.entries
  in
  let lane_names =
    List.init s.machines (fun m -> (m, Printf.sprintf "machine %d" m))
  in
  Ddf_obs.Sinks.chrome_json_of_events ~lane_names events

let pp_schedule ppf s =
  Fmt.pf ppf "%d machines: serial %d us, makespan %d us, speedup %.2fx"
    s.machines s.serial_us s.makespan_us (speedup s)
