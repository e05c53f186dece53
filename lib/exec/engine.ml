(* The task execution engine: flow automation (section 3.3).

   Because tool and data dependencies are specified in the task schema,
   a complete flow sequences itself: the engine walks the graph's
   invocations in dependency order, resolves an encapsulation for each,
   runs it, stores the outputs and appends the derivation record to the
   design history.  Memoization is the design-consistency service: a
   task whose exact tool and inputs were already run is looked up in
   the history instead of re-executed. *)

open Ddf_schema
open Ddf_graph
open Ddf_store
open Ddf_history
open Ddf_tools
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics

let m_runs = Metrics.counter "engine.runs"
let m_executed = Metrics.counter "engine.executed"
let m_memo = Metrics.counter "engine.memo_hits"
let m_composed = Metrics.counter "engine.composed"
let m_installs = Metrics.counter "engine.installs"
let m_batches = Metrics.counter "engine.batched_merges"

type context = {
  schema : Schema.t;
  mutable store : Ddf_data.value Store.t;
  mutable history : History.t;
  registry : Encapsulation.registry;
  mutable clock : int;
  mutable user : string;
}

let exec_errorf ?(code = `Invalid) fmt = Ddf_core.Error.errorf code fmt

let create_context ?(user = "designer") ?registry schema =
  let registry =
    match registry with Some r -> r | None -> Standard_tools.registry ()
  in
  {
    schema;
    store = Store.create ();
    history = History.create ();
    registry;
    clock = 0;
    user;
  }

let tick ctx =
  ctx.clock <- ctx.clock + 1;
  ctx.clock

(* A pinned read view over a context: the store and history snapshots
   captured together.  The history is captured first — records only
   ever reference instances already installed, so the (possibly
   later) store view covers every instance a captured record
   mentions. *)
type view = {
  v_store : Ddf_data.value Store.snapshot;
  v_history : History.snapshot;
}

let pin ctx =
  let v_history = History.snapshot ctx.history in
  let v_store = Store.snapshot ctx.store in
  { v_store; v_history }

(* Install a source design object (or a tool from the catalog). *)
let install ctx ~entity ?(label = "") ?(comment = "") ?(keywords = []) ?user
    value =
  Metrics.incr m_installs;
  ignore (Schema.find ctx.schema entity);
  Typing.check ctx.schema entity value;
  let user = Option.value user ~default:ctx.user in
  let meta =
    Store.meta ~user ~label ~comment ~keywords ~created_at:(tick ctx) ()
  in
  Store.put ctx.store ~entity ~hash:(Ddf_data.hash value) ~meta value

(* Install a catalog tool with its default payload. *)
let install_tool ctx entity =
  match Standard_tools.default_tool_payload entity with
  | Some payload -> install ctx ~entity ~label:entity payload
  | None -> exec_errorf ~code:`Not_found "tool %s has no default catalog payload" entity

type stats = {
  executed : int;     (* invocations actually run *)
  memo_hits : int;    (* invocations satisfied from the history *)
  composed : int;     (* composite entities assembled *)
}

let no_stats = { executed = 0; memo_hits = 0; composed = 0 }

type run = {
  assignment : (int * Store.iid) list;  (* node -> instance *)
  stats : stats;
  (* per executed invocation: outputs and simulated cost, in execution
     order -- the machine-pool scheduler replays these *)
  costs : (int list * int) list;
}

(* Look in the history for a record of the same task with the same tool
   and inputs: if design objects are uniquely identified by their
   derivation, this IS the design-consistency lookup. *)
let memo_lookup ctx ~tool ~inputs ~out_entities =
  let probe =
    match (inputs, tool) with
    | (_, iid) :: _, _ -> Some iid
    | [], Some t -> Some t
    | [], None -> None
  in
  match probe with
  | None -> None
  | Some iid ->
    let inputs_sorted = List.sort compare inputs in
    let matches (r : History.record) =
      r.History.tool = tool
      && List.sort compare r.History.inputs = inputs_sorted
      && List.for_all
           (fun e -> List.mem_assoc e r.History.outputs)
           out_entities
    in
    List.find_opt matches (History.uses_of ctx.history iid)

let ordered_invocations g =
  let rank = Hashtbl.create 32 in
  List.iteri (fun i nid -> Hashtbl.add rank nid i) (Task_graph.topological_order g);
  Task_graph.invocations g
  |> List.map (fun (inv : Task_graph.invocation) ->
         let r =
           List.fold_left
             (fun m o -> min m (Hashtbl.find rank o))
             max_int inv.Task_graph.outputs
         in
         (r, inv))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Execute one invocation under the current assignment; returns the
   new output instances. *)
let run_invocation ?(memo = true) ctx g assignment (inv : Task_graph.invocation) =
  let node_entity nid = Task_graph.entity_of g nid in
  let lookup nid =
    match Hashtbl.find_opt assignment nid with
    | Some iid -> iid
    | None ->
      exec_errorf "node %d (%s) has no instance selected" nid (node_entity nid)
  in
  let tool = Option.map lookup inv.Task_graph.tool in
  (* an unselected node filling only an optional role is simply
     omitted: the dashed arcs of Fig. 1 *)
  let role_optional role =
    match inv.Task_graph.outputs with
    | [] -> false
    | out :: _ ->
      List.exists
        (fun (e : Task_graph.edge) ->
          e.Task_graph.role = role
          && e.Task_graph.dep_kind = Schema.Data_dep { optional = true })
        (Task_graph.out_edges g out)
  in
  let inputs =
    List.filter_map
      (fun (role, nid) ->
        match Hashtbl.find_opt assignment nid with
        | Some iid -> Some (role, iid)
        | None ->
          if role_optional role then None
          else
            exec_errorf "node %d (%s) has no instance selected" nid
              (node_entity nid))
      inv.Task_graph.inputs
  in
  let out_entities = List.map node_entity inv.Task_graph.outputs in
  let assign_outputs outputs_by_entity =
    List.iter
      (fun nid ->
        let entity = node_entity nid in
        match List.assoc_opt entity outputs_by_entity with
        | Some iid -> Hashtbl.replace assignment nid iid
        | None ->
          exec_errorf "task produced no output for entity %s" entity)
      inv.Task_graph.outputs
  in
  match
    if memo then memo_lookup ctx ~tool ~inputs ~out_entities else None
  with
  | Some r ->
    Metrics.incr m_memo;
    (if Obs.enabled () then
       let name = match out_entities with e :: _ -> e | [] -> "task" in
       Obs.instant ~cat:"engine" ~logical:ctx.clock
         ~attrs:[ ("kind", Obs.Str "memo"); ("record", Obs.Int r.History.rid) ]
         name);
    assign_outputs r.History.outputs;
    `Memo
  | None ->
    let args =
      List.map (fun (role, iid) -> (role, Store.payload ctx.store iid)) inputs
    in
    let t0 = if Obs.enabled () then Obs.now_us () else 0.0 in
    let outcome, cost_us, kind =
      match inv.Task_graph.tool with
      | None ->
        (* composite entity: implicit composition function *)
        let entity =
          match out_entities with
          | [ e ] -> e
          | [] | _ :: _ -> exec_errorf "composite task must have one output"
        in
        let composer = Encapsulation.find_composer ctx.registry entity in
        ([ (entity, composer args) ], 10, `Composed)
      | Some tool_nid ->
        let tool_iid = lookup tool_nid in
        let tool_payload = Store.payload ctx.store tool_iid in
        let tool_entity = Store.entity_of ctx.store tool_iid in
        let goal =
          match out_entities with
          | e :: _ -> e
          | [] -> exec_errorf "invocation without outputs"
        in
        let enc =
          Encapsulation.resolve ctx.registry ctx.schema ~tool_entity ~goal
        in
        let outcome =
          enc.Encapsulation.behavior ~tool:tool_payload ~goals:out_entities args
        in
        (outcome, enc.Encapsulation.cost_us args, `Executed)
    in
    (* store outputs and record the derivation *)
    let at = tick ctx in
    let stored =
      List.map
        (fun (entity, value) ->
          Typing.check ctx.schema entity value;
          let label = Ddf_data.summary value in
          let label =
            if String.length label > 60 then String.sub label 0 60 else label
          in
          let meta = Store.meta ~user:ctx.user ~label ~created_at:at () in
          (entity, Store.put ctx.store ~entity ~hash:(Ddf_data.hash value) ~meta value))
        outcome
    in
    let task_entity =
      match out_entities with e :: _ -> e | [] -> assert false
    in
    let produced =
      (* record only the outputs that correspond to graph nodes, but
         all of them: co-produced outputs stay in one record *)
      List.filter (fun (e, _) -> List.mem e out_entities) stored
    in
    ignore
      (History.add ctx.history ctx.store ctx.schema ~task_entity ~tool ~inputs
         ~outputs:produced ~at);
    assign_outputs stored;
    (match kind with
    | `Composed -> Metrics.incr m_composed
    | `Executed -> Metrics.incr m_executed);
    if Obs.enabled () then
      Obs.complete ~cat:"engine" ~logical:at
        ~dur_us:(Obs.now_us () -. t0)
        ~attrs:
          [
            ( "kind",
              Obs.Str
                (match kind with `Composed -> "composed" | `Executed -> "executed")
            );
            ("cost_us", Obs.Int cost_us);
            ("outputs", Obs.Int (List.length produced));
          ]
        task_entity;
    (match kind with `Composed -> `Compose cost_us | `Executed -> `Ran cost_us)

(* Execute a complete flow.  [bindings] selects instances for leaf
   nodes (and optionally pre-computed inner nodes).  Derived nodes are
   computed in dependency order; sub-flows whose nodes are all bound
   are left untouched. *)
let execute ?(memo = true) ctx g ~bindings =
  Task_graph.validate g;
  let assignment = Hashtbl.create 32 in
  List.iter
    (fun (nid, iid) ->
      let entity = Task_graph.entity_of g nid in
      let inst_entity = Store.entity_of ctx.store iid in
      if not (Schema.is_subtype ctx.schema ~sub:inst_entity ~super:entity) then
        exec_errorf ~code:`Type_error "instance #%d (%s) cannot fill node %d (%s)" iid
          inst_entity
          nid entity;
      Hashtbl.replace assignment nid iid)
    bindings;
  (* a leaf must be bound when (a) some invocation that will actually
     run consumes it through a mandatory role -- sub-flows beneath
     pre-bound nodes are skipped entirely -- or (b) it is an unconsumed
     root the designer asked for *)
  let needed = Hashtbl.create 16 in
  List.iter
    (fun (inv : Task_graph.invocation) ->
      let runs =
        not (List.for_all (Hashtbl.mem assignment) inv.Task_graph.outputs)
      in
      if runs then begin
        (match inv.Task_graph.tool with
        | Some t -> Hashtbl.replace needed t ()
        | None -> ());
        List.iter
          (fun (role, nid) ->
            let optional =
              match inv.Task_graph.outputs with
              | [] -> false
              | out :: _ ->
                List.exists
                  (fun (e : Task_graph.edge) ->
                    e.Task_graph.role = role
                    && e.Task_graph.dep_kind
                       = Schema.Data_dep { optional = true })
                  (Task_graph.out_edges g out)
            in
            if not optional then Hashtbl.replace needed nid ())
          inv.Task_graph.inputs
      end)
    (Task_graph.invocations g);
  List.iter
    (fun nid ->
      let required =
        Hashtbl.mem needed nid
        || (Task_graph.in_edges g nid = [] && not (Hashtbl.mem assignment nid))
      in
      if required && not (Hashtbl.mem assignment nid) then
        exec_errorf "leaf node %d (%s) has no instance selected" nid
          (Task_graph.entity_of g nid))
    (Task_graph.leaves g);
  Metrics.incr m_runs;
  let stats = ref no_stats in
  let costs = ref [] in
  Obs.with_span ~cat:"engine" ~logical:ctx.clock
    ~attrs:
      [
        ("nodes", Obs.Int (Task_graph.size g));
        ("invocations", Obs.Int (List.length (Task_graph.invocations g)));
      ]
    "engine.execute"
    (fun () ->
      List.iter
        (fun (inv : Task_graph.invocation) ->
          let already_done =
            List.for_all (Hashtbl.mem assignment) inv.Task_graph.outputs
          in
          if not already_done then
            match run_invocation ~memo ctx g assignment inv with
            | `Memo -> stats := { !stats with memo_hits = !stats.memo_hits + 1 }
            | `Compose c ->
              stats := { !stats with composed = !stats.composed + 1 };
              costs := (inv.Task_graph.outputs, c) :: !costs
            | `Ran c ->
              stats := { !stats with executed = !stats.executed + 1 };
              costs := (inv.Task_graph.outputs, c) :: !costs)
        (ordered_invocations g));
  {
    assignment =
      Hashtbl.fold (fun nid iid acc -> (nid, iid) :: acc) assignment []
      |> List.sort compare;
    stats = !stats;
    costs = List.rev !costs;
  }

(* The implicit decomposition function of a composite entity: split an
   instance into component instances, recorded in the history like any
   other task (section 3.1). *)
let decompose ctx iid =
  let entity = Store.entity_of ctx.store iid in
  if not (Schema.is_composite ctx.schema entity) then
    exec_errorf ~code:`Type_error "instance #%d (%s) is not composite" iid entity;
  let decomposer = Encapsulation.find_decomposer ctx.registry entity in
  let parts = decomposer (Store.payload ctx.store iid) in
  let at = tick ctx in
  let stored =
    List.map
      (fun (part_entity, value) ->
        Typing.check ctx.schema part_entity value;
        let label = Ddf_data.summary value in
        let meta = Store.meta ~user:ctx.user ~label ~created_at:at () in
        ( part_entity,
          Store.put ctx.store ~entity:part_entity ~hash:(Ddf_data.hash value)
            ~meta value ))
      parts
  in
  (match stored with
  | [] -> exec_errorf "decomposition of %s produced nothing" entity
  | (first, _) :: _ ->
    ignore
      (History.add ctx.history ctx.store ctx.schema ~task_entity:first
         ~tool:None ~inputs:[ ("composite", iid) ] ~outputs:stored ~at));
  stored

let result_of run nid =
  match List.assoc_opt nid run.assignment with
  | Some iid -> iid
  | None -> exec_errorf ~code:`Not_found "node %d was not computed" nid

(* Batched tool calls (section 4.1): when every consumer of a
   multi-selected node is served by a batched encapsulation and the
   registry knows how to merge the node's payload kind, the selections
   collapse into one merged instance (recorded in the history like a
   composition) instead of fanning out. *)
let try_batch ?(memo = true) ctx g nid iids =
  let entity = Task_graph.entity_of g nid in
  let root = Schema.root_of ctx.schema entity in
  match Encapsulation.find_merger ctx.registry root with
  | None -> None
  | Some merge ->
    let consumers = Task_graph.in_edges g nid in
    let batched (user, _role) =
      match
        List.find_opt
          (fun (e : Task_graph.edge) ->
            e.Task_graph.dep_kind = Schema.Functional)
          (Task_graph.out_edges g user)
      with
      | None -> false
      | Some tool_edge -> (
        let tool_entity = Task_graph.entity_of g tool_edge.Task_graph.dst in
        match
          Encapsulation.resolve ctx.registry ctx.schema ~tool_entity
            ~goal:(Task_graph.entity_of g user)
        with
        | enc -> enc.Encapsulation.batched
        | exception Encapsulation.Tool_error _ -> false)
    in
    if consumers = [] || not (List.for_all batched consumers) then None
    else begin
      let inputs = List.mapi (fun i iid -> (Printf.sprintf "part%d" i, iid)) iids in
      match
        if memo then
          memo_lookup ctx ~tool:None ~inputs ~out_entities:[ entity ]
        else None
      with
      | Some r -> List.assoc_opt entity r.History.outputs
      | None ->
        Metrics.incr m_batches;
        let merged = merge (List.map (Store.payload ctx.store) iids) in
        Typing.check ctx.schema entity merged;
        let at = tick ctx in
        let meta =
          Store.meta ~user:ctx.user
            ~label:(Printf.sprintf "batch of %d" (List.length iids))
            ~created_at:at ()
        in
        let iid =
          Store.put ctx.store ~entity ~hash:(Ddf_data.hash merged) ~meta merged
        in
        ignore
          (History.add ctx.history ctx.store ctx.schema ~task_entity:entity
             ~tool:None ~inputs
             ~outputs:[ (entity, iid) ] ~at);
        Some iid
    end

(* Fan-out execution: any leaf may carry several selected instances
   (section 4.1); the task runs once per combination, except where a
   batched encapsulation collapses the selection into one call. *)
let execute_fanout ?(memo = true) ?(max_combinations = 256) ctx g ~bindings =
  let bindings =
    List.map
      (fun (nid, iids) ->
        if List.length iids <= 1 then (nid, iids)
        else
          match try_batch ~memo ctx g nid iids with
          | Some merged -> (nid, [ merged ])
          | None -> (nid, iids))
      bindings
  in
  let combos =
    List.fold_left
      (fun acc (nid, iids) ->
        if iids = [] then exec_errorf "empty selection for node %d" nid;
        List.concat_map
          (fun combo -> List.map (fun iid -> (nid, iid) :: combo) iids)
          acc)
      [ [] ] bindings
    |> List.map List.rev
  in
  if List.length combos > max_combinations then
    exec_errorf "selection produces %d combinations (limit %d)"
      (List.length combos) max_combinations;
  List.map (fun bindings -> execute ~memo ctx g ~bindings) combos

let pp_stats ppf s =
  Fmt.pf ppf "%d executed, %d from history, %d composed" s.executed s.memo_hits
    s.composed
