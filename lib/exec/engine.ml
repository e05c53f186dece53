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
  mutable store : string Store.t;
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

module Int_map = Map.Make (Int)

(* A pinned read view over a context: the store and history snapshots
   captured together.  The history is captured first — records only
   ever reference instances already installed, so the (possibly
   later) store view covers every instance a captured record
   mentions. *)
type view = {
  v_store : string Store.snapshot;
  v_history : History.snapshot;
}

let pin ctx =
  let v_history = History.snapshot ctx.history in
  let v_store = Store.snapshot ctx.store in
  { v_store; v_history }

(* The decode cache: 256 lock-free slots, indexed from the content hash
   and shared by every domain, each holding the last value stored or
   decoded under it.  Equal hashes are equal contents, so one cache
   serves every store. *)
let cache = Array.init 256 (fun _ -> Atomic.make ("", Ddf_data.Tool (Ddf_data.Builtin "")))
let slot hash = cache.(Hashtbl.hash hash land 255)
let remember hash value = Atomic.set (slot hash) (hash, value)

(* Stored text was checked against its hash on its way in (install,
   replay, checkpoint load, sync or cold load): a miss only parses it. *)
let decode snap iid =
  let hash = Store.Snapshot.hash_of snap iid in
  match Atomic.get (slot hash) with
  | h, value when String.equal h hash -> value
  | _ -> (
    match Ddf_persist.Codec.value_of_text (Store.Snapshot.payload snap iid) with
    | value ->
      remember hash value;
      value
    | exception Ddf_persist.Codec.Codec_error m ->
      exec_errorf ~code:`Internal "value of instance %d: %s" iid m)

(* Store [value] as its text, printed unless the caller holds it. *)
let put ?text ctx ~entity ~meta value =
  let hash = Ddf_data.hash value in
  remember hash value;
  Store.put ctx.store ~entity ~hash ~meta
    (match text with Some t -> t | None -> Ddf_persist.Codec.value_to_text value)

(* Install a source design object (or a tool from the catalog). *)
let install ctx ~entity ?(label = "") ?(comment = "") ?(keywords = []) ?user
    ?text value =
  Metrics.incr m_installs;
  ignore (Schema.find ctx.schema entity);
  Typing.check ctx.schema entity value;
  let user = Option.value user ~default:ctx.user in
  let meta =
    Store.meta ~user ~label ~comment ~keywords ~created_at:(tick ctx) ()
  in
  put ?text ctx ~entity ~meta value

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

(* Whether [role] of an invocation is an optional data role: the dashed
   arcs of Fig. 1. *)
let role_optional g (inv : Task_graph.invocation) role =
  match inv.Task_graph.outputs with
  | [] -> false
  | out :: _ ->
    List.exists
      (fun (e : Task_graph.edge) ->
        e.Task_graph.role = role
        && e.Task_graph.dep_kind = Schema.Data_dep { optional = true })
      (Task_graph.out_edges g out)

(* The tool and the inputs by role that an invocation resolves under
   [assignment].  An unselected node that fills only an optional role
   is simply omitted. *)
let resolve_inputs g assignment (inv : Task_graph.invocation) =
  let find nid = Int_map.find_opt nid assignment in
  let unselected nid =
    exec_errorf "node %d (%s) has no instance selected" nid
      (Task_graph.entity_of g nid)
  in
  let tool =
    Option.map
      (fun nid -> match find nid with Some iid -> iid | None -> unselected nid)
      inv.Task_graph.tool
  in
  let inputs =
    List.filter_map
      (fun (role, nid) ->
        match find nid with
        | Some iid -> Some (role, iid)
        | None -> if role_optional g inv role then None else unselected nid)
      inv.Task_graph.inputs
  in
  (tool, inputs)

(* Execute an invocation under the current assignment: a memo hit, or
   a run of its composer or tool whose outputs are stored and
   recorded. *)
let run_invocation ~memo ctx g assignment (inv : Task_graph.invocation) =
  let node_entity nid = Task_graph.entity_of g nid in
  let tool, inputs = resolve_inputs g !assignment inv in
  let out_entities = List.map node_entity inv.Task_graph.outputs in
  let task_entity =
    match out_entities with
    | e :: _ -> e
    | [] -> exec_errorf "invocation without outputs"
  in
  let assign_outputs outputs_by_entity =
    List.iter
      (fun nid ->
        let entity = node_entity nid in
        match List.assoc_opt entity outputs_by_entity with
        | Some iid -> assignment := Int_map.add nid iid !assignment
        | None ->
          exec_errorf "task produced no output for entity %s" entity)
      inv.Task_graph.outputs
  in
  (* Pinned here, after the invocations before this one committed. *)
  let view = pin ctx in
  (* The design-consistency lookup: the oldest record of this task with
     this tool and these inputs, found through the least-used of them. *)
  match
    if memo then
      History.Snapshot.find_derivation view.v_history ~tool ~inputs
        ~out_entities
    else None
  with
  | Some r ->
    Metrics.incr m_memo;
    if Obs.enabled () then
      Obs.instant ~cat:"engine" ~logical:ctx.clock
        ~attrs:[ ("kind", Obs.Str "memo"); ("record", Obs.Int r.History.rid) ]
        task_entity;
    assign_outputs r.History.outputs;
    `Memo
  | None ->
    let t0 = if Obs.enabled () then Obs.now_us () else 0.0 in
    let snap = view.v_store in
    let args = List.map (fun (role, iid) -> (role, decode snap iid)) inputs in
    let values, cost_us, kind =
      match tool with
      | None ->
        (* composite entity: implicit composition function *)
        if List.length out_entities <> 1 then
          exec_errorf "composite task must have one output";
        let composer = Encapsulation.find_composer ctx.registry task_entity in
        ([ (task_entity, composer args) ], 10, `Composed)
      | Some tool_iid ->
        let tool_payload = decode snap tool_iid in
        let tool_entity = Store.Snapshot.entity_of snap tool_iid in
        let enc =
          Encapsulation.resolve ctx.registry ctx.schema ~tool_entity
            ~goal:task_entity
        in
        ( enc.Encapsulation.behavior ~tool:tool_payload ~goals:out_entities args,
          enc.Encapsulation.cost_us args,
          `Executed )
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
          (entity, put ctx ~entity ~meta value))
        values
    in
    let produced =
      (* record only the outputs that correspond to graph nodes, but
         all of them: co-produced outputs stay in one record *)
      List.filter (fun (e, _) -> List.mem e out_entities) stored
    in
    ignore
      (History.add ctx.history (Store.snapshot ctx.store) ctx.schema
         ~task_entity ~tool ~inputs ~outputs:produced ~at);
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
   computed one invocation at a time in dependency order; sub-flows
   whose nodes are all bound are left untouched. *)
let execute ?(memo = true) ctx g ~bindings =
  Task_graph.validate g;
  let assignment = ref Int_map.empty in
  let snap = Store.snapshot ctx.store in
  List.iter
    (fun (nid, iid) ->
      let entity = Task_graph.entity_of g nid in
      let inst_entity = Store.Snapshot.entity_of snap iid in
      if not (Schema.is_subtype ctx.schema ~sub:inst_entity ~super:entity) then
        exec_errorf ~code:`Type_error "instance #%d (%s) cannot fill node %d (%s)" iid
          inst_entity
          nid entity;
      assignment := Int_map.add nid iid !assignment)
    bindings;
  let bound nid = Int_map.mem nid !assignment in
  (* a leaf must be bound when (a) some invocation that will actually
     run consumes it through a mandatory role -- sub-flows beneath
     pre-bound nodes are skipped entirely -- or (b) it is an unconsumed
     root the designer asked for *)
  let needed = Hashtbl.create 16 in
  List.iter
    (fun (inv : Task_graph.invocation) ->
      if not (List.for_all bound inv.Task_graph.outputs) then begin
        (match inv.Task_graph.tool with
        | Some t -> Hashtbl.replace needed t ()
        | None -> ());
        List.iter
          (fun (role, nid) ->
            if not (role_optional g inv role) then Hashtbl.replace needed nid ())
          inv.Task_graph.inputs
      end)
    (Task_graph.invocations g);
  List.iter
    (fun nid ->
      let required =
        Hashtbl.mem needed nid
        || (Task_graph.in_edges g nid = [] && not (bound nid))
      in
      if required && not (bound nid) then
        exec_errorf "leaf node %d (%s) has no instance selected" nid
          (Task_graph.entity_of g nid))
    (Task_graph.leaves g);
  Metrics.incr m_runs;
  let stats = ref no_stats in
  let costs = ref [] in
  let invocations = ordered_invocations g in
  Obs.with_span ~cat:"engine" ~logical:ctx.clock
    ~attrs:
      [
        ("nodes", Obs.Int (Task_graph.size g));
        ("invocations", Obs.Int (List.length invocations));
      ]
    "engine.execute"
    (fun () ->
      List.iter
        (fun (inv : Task_graph.invocation) ->
          if not (List.for_all bound inv.Task_graph.outputs) then
            match run_invocation ~memo ctx g assignment inv with
            | `Memo -> stats := { !stats with memo_hits = !stats.memo_hits + 1 }
            | `Compose c ->
              stats := { !stats with composed = !stats.composed + 1 };
              costs := (inv.Task_graph.outputs, c) :: !costs
            | `Ran c ->
              stats := { !stats with executed = !stats.executed + 1 };
              costs := (inv.Task_graph.outputs, c) :: !costs)
        invocations);
  {
    assignment = Int_map.bindings !assignment;
    stats = !stats;
    costs = List.rev !costs;
  }

(* The implicit decomposition function of a composite entity: split an
   instance into component instances, recorded in the history like any
   other task (section 3.1). *)
let decompose ctx iid =
  let snap = Store.snapshot ctx.store in
  let entity = Store.Snapshot.entity_of snap iid in
  if not (Schema.is_composite ctx.schema entity) then
    exec_errorf ~code:`Type_error "instance #%d (%s) is not composite" iid entity;
  let decomposer = Encapsulation.find_decomposer ctx.registry entity in
  let parts = decomposer (decode snap iid) in
  let at = tick ctx in
  let stored =
    List.map
      (fun (part_entity, value) ->
        Typing.check ctx.schema part_entity value;
        let label = Ddf_data.summary value in
        let meta = Store.meta ~user:ctx.user ~label ~created_at:at () in
        (part_entity, put ctx ~entity:part_entity ~meta value))
      parts
  in
  (match stored with
  | [] -> exec_errorf "decomposition of %s produced nothing" entity
  | (first, _) :: _ ->
    ignore
      (History.add ctx.history (Store.snapshot ctx.store) ctx.schema
         ~task_entity:first ~tool:None ~inputs:[ ("composite", iid) ]
         ~outputs:stored ~at));
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
      let view = pin ctx in
      match
        if memo then
          History.Snapshot.find_derivation view.v_history ~tool:None ~inputs
            ~out_entities:[ entity ]
        else None
      with
      | Some r -> List.assoc_opt entity r.History.outputs
      | None ->
        Metrics.incr m_batches;
        let merged = merge (List.map (decode view.v_store) iids) in
        Typing.check ctx.schema entity merged;
        let at = tick ctx in
        let meta =
          Store.meta ~user:ctx.user
            ~label:(Printf.sprintf "batch of %d" (List.length iids))
            ~created_at:at ()
        in
        let iid = put ctx ~entity ~meta merged in
        ignore
          (History.add ctx.history (Store.snapshot ctx.store) ctx.schema
             ~task_entity:entity ~tool:None ~inputs
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
  (* count before building: the product stops growing once past the
     limit, so a huge selection is refused without being materialised *)
  let count =
    List.fold_left
      (fun n (nid, iids) ->
        if iids = [] then exec_errorf "empty selection for node %d" nid;
        if n > max_combinations then n else n * List.length iids)
      1 bindings
  in
  if count > max_combinations then
    exec_errorf "selection produces at least %d combinations (limit %d)" count
      max_combinations;
  let combos =
    List.fold_left
      (fun acc (nid, iids) ->
        List.concat_map
          (fun combo -> List.map (fun iid -> (nid, iid) :: combo) iids)
          acc)
      [ [] ] bindings
    |> List.map List.rev
  in
  List.map (fun bindings -> execute ~memo ctx g ~bindings) combos

let pp_stats ppf s =
  Fmt.pf ppf "%d executed, %d from history, %d composed" s.executed s.memo_hits
    s.composed
