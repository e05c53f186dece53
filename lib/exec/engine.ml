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

let payload ctx iid = decode (Store.snapshot ctx.store) iid

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
   [find], the assignment at its turn.  An unselected node that fills
   only an optional role is simply omitted. *)
let resolve_inputs g find (inv : Task_graph.invocation) =
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

(* What an invocation's behaviour yields: its output values by entity
   and its simulated cost. *)
type outcome = {
  values : (string * Ddf_data.value) list;
  cost_us : int;
  kind : [ `Composed | `Executed ];
}

(* Run an invocation's composer or tool over its resolved inputs,
   reading payloads through [snap].  It reads only the context's
   immutable schema and registry, so a helper domain may run it. *)
let perform ctx snap out_entities ~tool ~inputs =
  let args = List.map (fun (role, iid) -> (role, decode snap iid)) inputs in
  match tool with
  | None ->
    (* composite entity: implicit composition function *)
    let entity =
      match out_entities with
      | [ e ] -> e
      | [] | _ :: _ -> exec_errorf "composite task must have one output"
    in
    let composer = Encapsulation.find_composer ctx.registry entity in
    { values = [ (entity, composer args) ]; cost_us = 10; kind = `Composed }
  | Some tool_iid ->
    let tool_payload = decode snap tool_iid in
    let tool_entity = Store.Snapshot.entity_of snap tool_iid in
    let goal =
      match out_entities with
      | e :: _ -> e
      | [] -> exec_errorf "invocation without outputs"
    in
    let enc = Encapsulation.resolve ctx.registry ctx.schema ~tool_entity ~goal in
    let values =
      enc.Encapsulation.behavior ~tool:tool_payload ~goals:out_entities args
    in
    { values; cost_us = enc.Encapsulation.cost_us args; kind = `Executed }

(* Look-ahead for [execute ~domains]: helper domains run the behaviours
   of later invocations whose inputs are already committed, while the
   commit loop keeps serial order and takes a helper's outcome at the
   invocation's turn.  A helper exits once nothing is ready, so no
   idle domain takes part in the collections of a long behaviour.
   The mutable fields are guarded by [lock]. *)
type slot =
  | Free
  | Taken  (* a helper is running its behaviour *)
  | Done of (outcome, exn * Printexc.raw_backtrace) result
  | Passed  (* no helper runs it: the commit loop does, or skips it *)

type ahead = {
  lock : Mutex.t;
  changed : Condition.t;
  invs : Task_graph.invocation array;
  ready_at : int array;
      (* commits after which invocation j's tool and inputs are final:
         one past the last invocation producing any of them *)
  slots : slot array;
  helpers : int;  (* the most helpers running at once *)
  mutable live : int;  (* helpers running *)
  mutable cursor : int;  (* the invocation the commit loop is at *)
  mutable known : Store.iid Int_map.t;  (* the assignment before it *)
  mutable view : view;  (* pinned before it *)
  mutable stop : bool;
}

let look_ahead ctx invocations known ~helpers =
  let invs = Array.of_list invocations in
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    invs;
    ready_at =
      Array.of_list
        (List.map
           (List.fold_left (fun r p -> max r (p + 1)) 0)
           (Task_graph.invocation_deps invocations));
    (* an invocation whose outputs are all bound is skipped *)
    slots =
      Array.map
        (fun (inv : Task_graph.invocation) ->
          if List.for_all (fun o -> Int_map.mem o known) inv.Task_graph.outputs
          then Passed
          else Free)
        invs;
    helpers;
    live = 0;
    cursor = 0;
    known;
    view = pin ctx;
    stop = false;
  }

(* Under [lock]: the invocations from [j] on that a helper may start. *)
let rec ready a j =
  if j >= Array.length a.invs then []
  else
    match a.slots.(j) with
    | Free when a.ready_at.(j) <= a.cursor -> j :: ready a (j + 1)
    | _ -> ready a (j + 1)

(* A helper domain: claim the first invocation past the commit loop
   whose inputs are final, and run it unless it is a memo hit; exit
   when none is left. *)
let rec help ctx g ~memo a =
  let job =
    Mutex.protect a.lock (fun () ->
        match if a.stop then [] else ready a (a.cursor + 1) with
        | j :: _ ->
          a.slots.(j) <- Taken;
          Some (j, a.known, a.view)
        | [] ->
          a.live <- a.live - 1;
          None)
  in
  match job with
  | None -> ()
  | Some (j, known, view) ->
    let inv = a.invs.(j) in
    let slot =
      match
        let tool, inputs =
          resolve_inputs g (fun nid -> Int_map.find_opt nid known) inv
        in
        let out_entities =
          List.map (Task_graph.entity_of g) inv.Task_graph.outputs
        in
        if memo
           && Option.is_some
                (History.Snapshot.find_derivation view.v_history ~tool
                   ~inputs ~out_entities)
        then None
        else Some (perform ctx view.v_store out_entities ~tool ~inputs)
      with
      | Some outcome -> Done (Ok outcome)
      | None -> Passed
      | exception e -> Done (Error (e, Printexc.get_raw_backtrace ()))
    in
    Mutex.protect a.lock (fun () ->
        a.slots.(j) <- slot;
        Condition.broadcast a.changed);
    help ctx g ~memo a

(* How many helpers to start for the invocations ready now. *)
let wanted a =
  Mutex.protect a.lock (fun () ->
      let n =
        min (a.helpers - a.live) (List.length (ready a (a.cursor + 1)))
      in
      a.live <- a.live + n;
      n)

(* The commit loop at invocation [j] after a memo miss: a helper's
   outcome, waited for if a helper is running it, or [None] when the
   loop must run it itself. *)
let outcome_of a j =
  Mutex.protect a.lock (fun () ->
      let rec await () =
        match a.slots.(j) with
        | Taken ->
          Condition.wait a.changed a.lock;
          await ()
        | Done r -> Some r
        | Free | Passed -> None
      in
      await ())

(* Publish the commit of the invocation at the cursor to the helpers. *)
let advance a ctx known =
  let view = pin ctx in
  Mutex.protect a.lock (fun () ->
      a.known <- known;
      a.view <- view;
      a.cursor <- a.cursor + 1)

let stop a = Mutex.protect a.lock (fun () -> a.stop <- true)

(* Execute the [j]th invocation under the current assignment: a memo
   hit, or a behaviour run (by a helper domain when [ahead] holds its
   outcome) whose outputs are stored and recorded. *)
let run_invocation ~memo ?ahead ctx g assignment j (inv : Task_graph.invocation) =
  let node_entity nid = Task_graph.entity_of g nid in
  let tool, inputs =
    resolve_inputs g (fun nid -> Int_map.find_opt nid !assignment) inv
  in
  let out_entities = List.map node_entity inv.Task_graph.outputs in
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
  (* The design-consistency lookup: the oldest record of this task with
     this tool and these inputs, found through the least-used of them. *)
  match
    if memo then
      History.Snapshot.find_derivation (History.snapshot ctx.history) ~tool
        ~inputs ~out_entities
    else None
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
    let t0 = if Obs.enabled () then Obs.now_us () else 0.0 in
    let { values; cost_us; kind } =
      match Option.bind ahead (fun a -> outcome_of a j) with
      | Some (Ok outcome) -> outcome
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> perform ctx (Store.snapshot ctx.store) out_entities ~tool ~inputs
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
   are left untouched.  With [domains] > 1, helper domains run later
   invocations' behaviours ahead of the commit loop, which commits
   exactly what a serial run commits. *)
let execute ?(domains = 1) ?(memo = true) ctx g ~bindings =
  if domains < 1 then exec_errorf "domains must be at least 1, not %d" domains;
  Task_graph.validate g;
  let assignment = ref Int_map.empty in
  List.iter
    (fun (nid, iid) ->
      let entity = Task_graph.entity_of g nid in
      let inst_entity = Store.entity_of ctx.store iid in
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
  let helpers = min (domains - 1) (List.length invocations - 1) in
  let ahead =
    if helpers > 0 then Some (look_ahead ctx invocations !assignment ~helpers)
    else None
  in
  let spawned = ref [] in
  let start a =
    for _ = 1 to wanted a do
      spawned := Domain.spawn (fun () -> help ctx g ~memo a) :: !spawned
    done
  in
  let commit_all () =
    Option.iter start ahead;
    List.iteri
      (fun j (inv : Task_graph.invocation) ->
        (if not (List.for_all bound inv.Task_graph.outputs) then
           match run_invocation ~memo ?ahead ctx g assignment j inv with
           | `Memo -> stats := { !stats with memo_hits = !stats.memo_hits + 1 }
           | `Compose c ->
             stats := { !stats with composed = !stats.composed + 1 };
             costs := (inv.Task_graph.outputs, c) :: !costs
           | `Ran c ->
             stats := { !stats with executed = !stats.executed + 1 };
             costs := (inv.Task_graph.outputs, c) :: !costs);
        Option.iter
          (fun a ->
            advance a ctx !assignment;
            start a)
          ahead)
      invocations
  in
  Obs.with_span ~cat:"engine" ~logical:ctx.clock
    ~attrs:
      [
        ("nodes", Obs.Int (Task_graph.size g));
        ("invocations", Obs.Int (List.length invocations));
      ]
    "engine.execute"
    (fun () ->
      match ahead with
      | None -> commit_all ()
      | Some a ->
        (* a raise in the loop surfaces only once every helper is joined *)
        Fun.protect
          ~finally:(fun () ->
            stop a;
            List.iter Domain.join !spawned)
          commit_all);
  {
    assignment = Int_map.bindings !assignment;
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
  let parts = decomposer (payload ctx iid) in
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
          History.Snapshot.find_derivation (History.snapshot ctx.history)
            ~tool:None ~inputs ~out_entities:[ entity ]
        else None
      with
      | Some r -> List.assoc_opt entity r.History.outputs
      | None ->
        Metrics.incr m_batches;
        let merged = merge (List.map (payload ctx) iids) in
        Typing.check ctx.schema entity merged;
        let at = tick ctx in
        let meta =
          Store.meta ~user:ctx.user
            ~label:(Printf.sprintf "batch of %d" (List.length iids))
            ~created_at:at ()
        in
        let iid = put ctx ~entity ~meta merged in
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
