(* View management through flows (section 3.3, Figs. 7-8).

   Designers think of a cell as a logic view, a transistor-level view
   and a physical view.  Associating views with schema entities lets
   flows express the transformations between them: synthesis derives
   the physical view from the logic view (Fig. 8a), and verification
   checks their correspondence by extraction and comparison (Fig. 8b).
   View management thus needs no machinery beyond dynamically defined
   flows -- this module only names the conventions. *)

open Ddf_schema
open Ddf_graph
open Ddf_store
module E = Standard_schemas.E

type cell_views = {
  cv_logic : Store.iid;
  cv_transistor : Store.iid;
  cv_physical : Store.iid;
}

(* Derive the transistor and physical views of a logic view by two
   flows, recording everything in the design history (Fig. 7). *)
let derive_views (ctx : Ddf_exec.Engine.context) ~logic ~placer_tool ~expander_tool =
  let schema = ctx.Ddf_exec.Engine.schema in
  (* physical: Fig. 8(a) synthesis flow *)
  let g, layout = Task_graph.create schema E.synthesized_layout in
  let g, fresh = Task_graph.expand ~include_optional:false g layout in
  let placer_node, netlist_node =
    match fresh with [ a; b ] -> (a, b) | _ -> assert false
  in
  let run =
    Ddf_exec.Engine.execute ctx g
      ~bindings:[ (placer_node, placer_tool); (netlist_node, logic) ]
  in
  let physical = Ddf_exec.Engine.result_of run layout in
  (* transistor: expansion flow *)
  let g, tview = Task_graph.create schema E.transistor_netlist in
  let g, fresh = Task_graph.expand g tview in
  let expander_node, netlist_node =
    match fresh with [ a; b ] -> (a, b) | _ -> assert false
  in
  let run =
    Ddf_exec.Engine.execute ctx g
      ~bindings:[ (expander_node, expander_tool); (netlist_node, logic) ]
  in
  let transistor = Ddf_exec.Engine.result_of run tview in
  { cv_logic = logic; cv_transistor = transistor; cv_physical = physical }

(* Fig. 8(b): verify that the physical view corresponds to the logic
   view, as a flow (extract then compare). *)
let verify_physical (ctx : Ddf_exec.Engine.context) ~logic ~physical ~extractor_tool
    ~verifier_tool =
  let schema = ctx.Ddf_exec.Engine.schema in
  let f = Standard_flows.fig8b () in
  ignore schema;
  let g = f.Standard_flows.f8b_graph in
  (* the fig8b flow still has the extractor + verifier tool leaves to bind *)
  let tool_leaves =
    List.filter
      (fun nid ->
        Task_graph.out_edges g nid = []
        && Schema.kind_of (Task_graph.schema g) (Task_graph.entity_of g nid)
           = Schema.Tool)
      (Task_graph.node_ids g)
  in
  let bindings =
    List.map
      (fun nid ->
        let entity = Task_graph.entity_of g nid in
        if entity = E.extractor then (nid, extractor_tool)
        else if entity = E.verifier then (nid, verifier_tool)
        else
          raise
            (Ddf_core.Error.Ddf_error
               (Ddf_core.Error.make `Type_error ("unexpected tool leaf " ^ entity))))
      tool_leaves
  in
  let bindings =
    (f.Standard_flows.f8b_reference, logic)
    :: (f.Standard_flows.f8b_layout, physical)
    :: bindings
  in
  let run = Ddf_exec.Engine.execute ctx g ~bindings in
  let verification_iid = Ddf_exec.Engine.result_of run f.Standard_flows.f8b_verification in
  let verdict =
    Ddf_data.as_verification (Ddf_exec.Engine.payload ctx verification_iid)
  in
  (verification_iid, verdict)

(* Direct (non-flow) correspondence between logic and transistor views,
   for the Fig. 7 demonstration: switch-level against gate-level. *)
let transistor_corresponds (ctx : Ddf_exec.Engine.context) ~logic ~transistor rng =
  let nl = Ddf_data.as_netlist (Ddf_exec.Engine.payload ctx logic) in
  let tv =
    match Ddf_exec.Engine.payload ctx transistor with
    | Ddf_data.Transistor_view t -> t
    | v ->
      raise
        (Ddf_data.Type_error
           ("expected a transistor view, got " ^ Ddf_data.kind_name v))
  in
  Ddf_eda.Transistor.corresponds nl tv rng
