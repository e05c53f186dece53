(* Parallel task execution (Fig. 6): disjoint branches of a flow can
   execute in parallel, possibly on different machines.

   Two facilities:
   - [schedule]: deterministic list scheduling of a flow's invocations
     onto a simulated machine pool, using the costs observed during a
     real run -- the makespan/speedup numbers of experiment E6;
   - [execute_parallel]: actual multicore execution with OCaml domains,
     wave by wave; tool behaviours run concurrently, store and history
     commits stay sequential. *)

open Ddf_graph
open Ddf_store
open Ddf_tools
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics

let m_schedules = Metrics.counter "parallel.schedules"
let m_waves = Metrics.counter "parallel.waves"
let m_parallel_executed = Metrics.counter "parallel.executed"

(* ------------------------------------------------------------------ *)
(* Machine-pool simulation                                             *)
(* ------------------------------------------------------------------ *)

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

(* Invocation-level dependency DAG: A precedes B when one of A's
   outputs is an input (or the tool) of B. *)
let invocation_deps invocations =
  let producer = Hashtbl.create 32 in
  List.iteri
    (fun i (inv : Task_graph.invocation) ->
      List.iter (fun o -> Hashtbl.replace producer o i) inv.Task_graph.outputs)
    invocations;
  List.map
    (fun (inv : Task_graph.invocation) ->
      let ins =
        (match inv.Task_graph.tool with Some t -> [ t ] | None -> [])
        @ List.map snd inv.Task_graph.inputs
      in
      List.filter_map (Hashtbl.find_opt producer) ins |> List.sort_uniq compare)
    invocations

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
  let deps_all = invocation_deps timed in
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

(* ------------------------------------------------------------------ *)
(* Real multicore execution                                            *)
(* ------------------------------------------------------------------ *)

(* Wave-parallel execution: repeatedly take every invocation whose
   dependencies are all assigned, run their behaviours in domains, then
   commit outputs sequentially. *)
let execute_parallel ?(domains = 4) ?(memo = true) (ctx : Engine.context) g
    ~bindings =
  Task_graph.validate g;
  let assignment = Hashtbl.create 32 in
  List.iter (fun (nid, iid) -> Hashtbl.replace assignment nid iid) bindings;
  let pending = ref (Engine.ordered_invocations g) in
  let executed = ref 0 in
  let wave = ref 0 in
  while !pending <> [] do
    incr wave;
    Metrics.incr m_waves;
    Obs.with_span ~cat:"parallel"
      ~attrs:[ ("wave", Obs.Int !wave) ]
      "parallel.wave"
    @@ fun () ->
    let ready, blocked =
      List.partition
        (fun (inv : Task_graph.invocation) ->
          let needs =
            (match inv.Task_graph.tool with Some t -> [ t ] | None -> [])
            @ List.map snd inv.Task_graph.inputs
          in
          List.for_all (Hashtbl.mem assignment) needs)
        !pending
    in
    if ready = [] then
      Ddf_core.Error.errorf `Invalid "parallel execution stuck: unbound leaves";
    (* skip invocations whose outputs are pre-bound *)
    let ready =
      List.filter
        (fun (inv : Task_graph.invocation) ->
          not (List.for_all (Hashtbl.mem assignment) inv.Task_graph.outputs))
        ready
    in
    (* resolve memo hits inline before spawning any work *)
    let ready =
      List.filter
        (fun (inv : Task_graph.invocation) ->
          let lookup nid = Hashtbl.find assignment nid in
          let inputs =
            List.map (fun (role, nid) -> (role, lookup nid)) inv.Task_graph.inputs
          in
          let tool = Option.map lookup inv.Task_graph.tool in
          let out_entities =
            List.map (Task_graph.entity_of g) inv.Task_graph.outputs
          in
          match
            if memo then Engine.memo_lookup ctx ~tool ~inputs ~out_entities
            else None
          with
          | None -> true
          | Some r ->
            List.iter
              (fun nid ->
                match
                  List.assoc_opt (Task_graph.entity_of g nid)
                    r.Ddf_history.History.outputs
                with
                | Some iid -> Hashtbl.replace assignment nid iid
                | None -> ())
              inv.Task_graph.outputs;
            false)
        ready
    in
    (* Pin one store snapshot for the whole wave: every instance a
       ready invocation references was committed in an earlier wave, so
       the snapshot covers it, and the payload lookups then run
       *inside* the spawned domains — lock-free reads on real cores
       instead of a serial resolve on the coordinator. *)
    let snap = Store.snapshot ctx.Engine.store in
    (* prepare each invocation: graph/assignment lookups stay on the
       coordinator, payload resolution moves into the worker domain *)
    let prepared =
      List.map
        (fun (inv : Task_graph.invocation) ->
          let node_entity nid = Task_graph.entity_of g nid in
          let lookup nid = Hashtbl.find assignment nid in
          let inputs =
            List.map (fun (role, nid) -> (role, lookup nid)) inv.Task_graph.inputs
          in
          let resolve_args () =
            List.map
              (fun (role, iid) -> (role, Store.Snapshot.payload snap iid))
              inputs
          in
          let out_entities = List.map node_entity inv.Task_graph.outputs in
          let work =
            match inv.Task_graph.tool with
            | None ->
              let entity = List.hd out_entities in
              let composer =
                Encapsulation.find_composer ctx.Engine.registry entity
              in
              fun () -> [ (entity, composer (resolve_args ())) ]
            | Some tool_nid ->
              let tool_iid = lookup tool_nid in
              let tool_entity = Store.Snapshot.entity_of snap tool_iid in
              let enc =
                Encapsulation.resolve ctx.Engine.registry ctx.Engine.schema
                  ~tool_entity ~goal:(List.hd out_entities)
              in
              fun () ->
                enc.Encapsulation.behavior
                  ~tool:(Store.Snapshot.payload snap tool_iid)
                  ~goals:out_entities (resolve_args ())
          in
          (inv, inputs, work))
        ready
    in
    (* run in batches of [domains] *)
    let rec batches = function
      | [] -> []
      | l ->
        let rec take n acc = function
          | [] -> (List.rev acc, [])
          | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let batch, rest = take domains [] l in
        batch :: batches rest
    in
    List.iter
      (fun batch ->
        let handles =
          List.map
            (fun (inv, inputs, work) ->
              (inv, inputs, Domain.spawn work))
            batch
        in
        (* sequential commit *)
        List.iter
          (fun ((inv : Task_graph.invocation), inputs, handle) ->
            let outcome = Domain.join handle in
            let at = Engine.tick ctx in
            let stored =
              List.map
                (fun (entity, value) ->
                  let meta =
                    Store.meta ~user:ctx.Engine.user
                      ~label:(Ddf_data.summary value) ~created_at:at ()
                  in
                  ( entity,
                    Store.put ctx.Engine.store ~entity
                      ~hash:(Ddf_data.hash value) ~meta value ))
                outcome
            in
            let tool = Option.map (Hashtbl.find assignment) inv.Task_graph.tool in
            let task_entity =
              Task_graph.entity_of g (List.hd inv.Task_graph.outputs)
            in
            ignore
              (Ddf_history.History.add ctx.Engine.history ctx.Engine.store
                 ctx.Engine.schema ~task_entity ~tool
                 ~inputs ~outputs:stored ~at);
            List.iter
              (fun nid ->
                let entity = Task_graph.entity_of g nid in
                match List.assoc_opt entity stored with
                | Some iid -> Hashtbl.replace assignment nid iid
                | None ->
                  Ddf_core.Error.errorf `Internal "no output for entity %s"
                    entity)
              inv.Task_graph.outputs;
            incr executed;
            Metrics.incr m_parallel_executed)
          handles)
      (batches prepared);
    pending := blocked
  done;
  ( Hashtbl.fold (fun nid iid acc -> (nid, iid) :: acc) assignment []
    |> List.sort compare,
    !executed )
