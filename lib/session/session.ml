(* The Hercules session model (section 4, Fig. 9).

   A session wraps an execution context with the four catalogs (flows,
   entities, tools, data) and the task-window state: a current flow
   under construction, per-node instance selections, and the expand /
   specialize / browse / run operations of the pop-up menu.  All four
   design approaches -- goal-, tool-, data- and plan-based -- funnel
   into the same single interface, unlike the per-approach interfaces
   of Rumsey & Farquhar. *)

open Ddf_schema
open Ddf_graph
open Ddf_store

let session_errorf ?(code = `Invalid) fmt = Ddf_core.Error.errorf code fmt

module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics

let m_expands = Metrics.counter "session.expands"
let m_selects = Metrics.counter "session.selects"
let m_runs = Metrics.counter "session.runs"
let m_recalls = Metrics.counter "session.recalls"

type t = {
  ctx : Ddf_exec.Engine.context;
  flow_catalog : (string, Task_graph.t) Hashtbl.t;
  mutable current : Task_graph.t;
  (* node -> selected instances (several = fan-out execution) *)
  selections : (int, Store.iid list) Hashtbl.t;
}

let create ?(user = "designer") schema =
  {
    ctx = Ddf_exec.Engine.create_context ~user schema;
    flow_catalog = Hashtbl.create 8;
    current = Task_graph.empty schema;
    selections = Hashtbl.create 8;
  }

let of_context ctx =
  {
    ctx;
    flow_catalog = Hashtbl.create 8;
    current = Task_graph.empty ctx.Ddf_exec.Engine.schema;
    selections = Hashtbl.create 8;
  }

let context s = s.ctx
let current_flow s = s.current

(* Pin a read view (store + history snapshots) for this session's
   context; every read entry point takes an optional pre-pinned view
   so the server can serve a whole request — or a whole pure-read
   batch — from one frozen state. *)
let pin s = Ddf_exec.Engine.pin s.ctx

let resolve_view s = function
  | Some v -> v
  | None -> pin s

(* ------------------------------------------------------------------ *)
(* Catalogs                                                            *)
(* ------------------------------------------------------------------ *)

let entity_catalog s = Schema.entity_ids s.ctx.Ddf_exec.Engine.schema

let tool_catalog s =
  List.filter (Schema.is_tool s.ctx.Ddf_exec.Engine.schema) (entity_catalog s)

let data_catalog ?(filter = Store.any_filter) ?view s =
  let v = resolve_view s view in
  Store.Snapshot.browse v.Ddf_exec.Engine.v_store filter

let flow_catalog s =
  Hashtbl.fold (fun name _ acc -> name :: acc) s.flow_catalog []
  |> List.sort compare

let catalog_flow s name = Hashtbl.find_opt s.flow_catalog name

let restore_flow s name g = Hashtbl.replace s.flow_catalog name g

let save_flow s name =
  if Task_graph.size s.current = 0 then session_errorf "no flow to save";
  Hashtbl.replace s.flow_catalog name s.current

let clear s =
  s.current <- Task_graph.empty s.ctx.Ddf_exec.Engine.schema;
  Hashtbl.reset s.selections

(* ------------------------------------------------------------------ *)
(* The four design approaches (section 3.4)                            *)
(* ------------------------------------------------------------------ *)

(* Goal-based: pick the goal entity type from the entity catalog. *)
let start_goal_based s entity =
  clear s;
  let g, nid = Task_graph.create s.ctx.Ddf_exec.Engine.schema entity in
  s.current <- g;
  nid

(* Tool-based: pick a tool; its node appears, and the goal options are
   derivable from the schema. *)
let start_tool_based s tool_entity =
  if not (Schema.is_tool s.ctx.Ddf_exec.Engine.schema tool_entity) then
    session_errorf ~code:`Type_error "%s is not a tool" tool_entity;
  clear s;
  let g, nid = Task_graph.create s.ctx.Ddf_exec.Engine.schema tool_entity in
  s.current <- g;
  nid

let goal_options s nid =
  Schema.goals_of_tool s.ctx.Ddf_exec.Engine.schema (Task_graph.entity_of s.current nid)

(* Data-based: pick an existing instance from the data catalog. *)
let start_data_based s iid =
  let entity =
    Store.Snapshot.entity_of (Store.snapshot s.ctx.Ddf_exec.Engine.store) iid
  in
  clear s;
  let g, nid = Task_graph.create s.ctx.Ddf_exec.Engine.schema entity in
  s.current <- g;
  Hashtbl.replace s.selections nid [ iid ];
  nid

(* Plan-based: pick a predefined flow from the flow catalog. *)
let start_plan_based s name =
  match Hashtbl.find_opt s.flow_catalog name with
  | None -> session_errorf ~code:`Not_found "no flow %S in the catalog" name
  | Some g ->
    clear s;
    s.current <- g;
    Task_graph.roots g

(* ------------------------------------------------------------------ *)
(* Pop-up menu operations                                              *)
(* ------------------------------------------------------------------ *)

let expand ?include_optional ?reuse s nid =
  Metrics.incr m_expands;
  let g, fresh = Task_graph.expand ?include_optional ?reuse s.current nid in
  s.current <- g;
  fresh

let expand_up ?role ?include_optional ?reuse s nid ~consumer =
  let g, cnid, fresh =
    Task_graph.expand_up ?role ?include_optional ?reuse s.current nid ~consumer
  in
  s.current <- g;
  (cnid, fresh)

let unexpand s nid =
  s.current <- Task_graph.unexpand s.current nid;
  (* drop selections of removed nodes *)
  Hashtbl.iter
    (fun n _ -> if not (Task_graph.mem s.current n) then Hashtbl.remove s.selections n)
    (Hashtbl.copy s.selections)

let specialize s nid subtype =
  s.current <- Task_graph.specialize s.current nid subtype

let specialization_options s nid =
  Schema.descendants s.ctx.Ddf_exec.Engine.schema (Task_graph.entity_of s.current nid)

(* Browse: instances selectable for a node (the node's entity and its
   subtypes), under an optional browser filter. *)
let browse ?(filter = Store.any_filter) ?view s nid =
  let v = resolve_view s view in
  let entity = Task_graph.entity_of s.current nid in
  let accepted = entity :: Schema.descendants s.ctx.Ddf_exec.Engine.schema entity in
  let filter =
    { filter with
      Store.f_entities =
        (match filter.Store.f_entities with
        | None -> Some accepted
        | Some es -> Some (List.filter (fun e -> List.mem e accepted) es)) }
  in
  Store.Snapshot.browse v.Ddf_exec.Engine.v_store filter

let select s nid iids =
  Metrics.incr m_selects;
  if iids = [] then session_errorf "empty selection";
  let snap = Store.snapshot s.ctx.Ddf_exec.Engine.store in
  List.iter
    (fun iid ->
      let entity = Store.Snapshot.entity_of snap iid in
      let node_entity = Task_graph.entity_of s.current nid in
      if not (Schema.is_subtype s.ctx.Ddf_exec.Engine.schema ~sub:entity ~super:node_entity)
      then
        session_errorf ~code:`Type_error "instance #%d (%s) cannot fill a %s node" iid entity
          node_entity)
    iids;
  Hashtbl.replace s.selections nid iids

let selection s nid = Hashtbl.find_opt s.selections nid

(* A node is executable once every leaf below it has a selection. *)
let executable s nid =
  let sub = Task_graph.reachable s.current nid in
  List.for_all
    (fun leaf ->
      (not (Task_graph.Int_set.mem leaf sub))
      || Hashtbl.mem s.selections leaf)
    (Task_graph.leaves s.current)
  && Task_graph.out_edges s.current nid <> []

(* Run the (sub-)flow rooted at a node, fanning out over multi-instance
   selections; results land in the store and history. *)
let run ?memo s nid =
  Metrics.incr m_runs;
  Obs.with_span ~cat:"session"
    ~attrs:
      [
        ("node", Obs.Int nid);
        ("entity", Obs.Str (Task_graph.entity_of s.current nid));
      ]
    "session.run"
  @@ fun () ->
  let sub = Task_graph.subflow s.current nid in
  let bindings =
    List.filter_map
      (fun leaf -> Option.map (fun sel -> (leaf, sel)) (selection s leaf))
      (Task_graph.leaves sub)
  in
  let runs = Ddf_exec.Engine.execute_fanout ?memo s.ctx sub ~bindings in
  List.map (fun r -> Ddf_exec.Engine.result_of r nid) runs

(* History pop-up: reveal the instances used to create one (Fig. 10). *)
let history_of ?view s iid =
  let v = resolve_view s view in
  Ddf_history.History.Snapshot.trace v.Ddf_exec.Engine.v_history
    v.Ddf_exec.Engine.v_store s.ctx.Ddf_exec.Engine.schema iid

(* Recall a previously executed task (section 4.1): the instance's flow
   trace becomes the current flow, with the leaf selections restored,
   ready to be modified and re-executed. *)
let recall s iid =
  Metrics.incr m_recalls;
  let g, root, binding = history_of s iid in
  clear s;
  s.current <- g;
  List.iter
    (fun (nid, inst) ->
      if Task_graph.out_edges g nid = [] then
        Hashtbl.replace s.selections nid [ inst ])
    binding;
  root

let trace_text ?view s iid =
  let v = resolve_view s view in
  Ddf_history.History.Snapshot.trace_text v.Ddf_exec.Engine.v_history
    v.Ddf_exec.Engine.v_store s.ctx.Ddf_exec.Engine.schema iid

(* "Use dependencies" browsing: what was derived from this instance. *)
let uses_of ?view s iid =
  let v = resolve_view s view in
  Ddf_history.History.Snapshot.derived_instances v.Ddf_exec.Engine.v_history iid

(* ------------------------------------------------------------------ *)
(* Rendering (the task window and browser of Fig. 9)                   *)
(* ------------------------------------------------------------------ *)

let render_task_window s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "--- task window ---\n";
  Buffer.add_string buf (Task_graph.to_ascii s.current);
  List.iter
    (fun (n : Task_graph.node) ->
      match selection s n.Task_graph.nid with
      | Some sel ->
        Buffer.add_string buf
          (Printf.sprintf "  node %d <- instances [%s]\n" n.Task_graph.nid
             (String.concat "; " (List.map string_of_int sel)))
      | None -> ())
    (Task_graph.nodes s.current);
  Buffer.contents buf

let render_browser ?(filter = Store.any_filter) ?view s nid =
  let v = resolve_view s view in
  let buf = Buffer.create 512 in
  let entity = Task_graph.entity_of s.current nid in
  Buffer.add_string buf (Printf.sprintf "--- browser: %s ---\n" entity);
  List.iter
    (fun iid ->
      let m = Store.Snapshot.meta_of v.Ddf_exec.Engine.v_store iid in
      Buffer.add_string buf
        (Printf.sprintf "  [%c] #%-4d %-24s %-10s @%d %s\n"
           (match selection s nid with
           | Some sel when List.mem iid sel -> '*'
           | Some _ | None -> ' ')
           iid
           (if m.Store.label = "" then "(unnamed)" else m.Store.label)
           m.Store.user m.Store.created_at m.Store.comment))
    (browse ~filter ~view:v s nid);
  Buffer.contents buf
