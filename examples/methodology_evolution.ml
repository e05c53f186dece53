(* Methodology maintenance (section 3.3): "they also make methodology
   maintenance easier by avoiding the requirement for the maintenance
   of a set of flows (only the task schema need be maintained), and by
   simplifying the incorporation of new tools."

   This scenario evolves a methodology mid-project three ways:

   1. a new tool VARIANT (fast_extractor <: extractor) serves existing
      flows with zero flow edits -- subtyping resolves the
      encapsulation;
   2. a brand-new TASK (a lint check) is added as one schema entity and
      one encapsulation, and is immediately expandable from any netlist
      node;
   3. the frozen-flow baseline is shown needing every stored flow
      rewritten for the same change. *)

open Ddf
module E = Standard_schemas.E

let () =
  print_endline "# evolving the methodology mid-project";

  (* the project starts on the stock schema *)
  let schema0 = Standard_schemas.odyssey in

  (* --- 1. a new tool variant --------------------------------------- *)
  let schema1 =
    Schema.add_entity schema0 (Schema.tool ~parent:E.extractor "fast_extractor" [])
  in
  Printf.printf
    "added fast_extractor <: extractor: %d -> %d entities, flows untouched\n"
    (Schema.size schema0) (Schema.size schema1);

  (* --- 2. a brand-new task ------------------------------------------ *)
  let schema2 =
    Schema.add_entity schema1 (Schema.tool "lint_checker" [])
  in
  let schema2 =
    Schema.add_entity schema2
      (Schema.entity "lint_report"
         ~description:"style and structure diagnostics for a netlist"
         [ Schema.functional "lint_checker"; Schema.data E.netlist ])
  in
  Printf.printf "added the lint task: netlist now has %d consumers (was %d)\n"
    (List.length (Schema.consumers schema2 E.netlist))
    (List.length (Schema.consumers schema0 E.netlist));

  (* its encapsulation: a real little lint pass over the substrate *)
  let registry = Standard_tools.registry () in
  let lint_enc =
    {
      Encapsulation.key = "lint.basic";
      tool_entity = "lint_checker";
      goals = [ "lint_report" ];
      behavior =
        (fun ~tool:_ ~goals:_ args ->
          let nl = Value.as_netlist (Encapsulation.required args E.netlist) in
          let fanout = Eda.Netlist.fanout_table nl in
          let diags = ref [] in
          let warn fmt = Printf.ksprintf (fun s -> diags := s :: !diags) fmt in
          List.iter
            (fun (g : Eda.Netlist.gate) ->
              if fanout g.Eda.Netlist.output > 4 then
                warn "high fanout (%d) on %s" (fanout g.Eda.Netlist.output)
                  g.Eda.Netlist.output;
              if List.length g.Eda.Netlist.inputs > 3 then
                warn "wide %s gate %s"
                  (Eda.Logic.op_name g.Eda.Netlist.op)
                  g.Eda.Netlist.gname)
            nl.Eda.Netlist.gates;
          List.iter
            (fun o ->
              if fanout o > 1 then ()
              else if not (List.mem o (Eda.Netlist.nets nl)) then
                warn "floating output %s" o)
            nl.Eda.Netlist.primary_outputs;
          let text =
            if !diags = [] then "clean"
            else String.concat "\n" (List.rev !diags)
          in
          [ ("lint_report", Value.Blob { blob_kind = "lint"; text }) ]);
      cost_us = (fun _ -> 30);
      batched = false;
    }
  in
  Encapsulation.register registry lint_enc;

  (* --- run both new capabilities over one workspace ------------------ *)
  let ctx = Engine.create_context ~user:"maintainer" ~registry schema2 in
  let nl = Eda.Circuits.mux4 () in
  let nl_iid =
    Engine.install ctx ~entity:E.edited_netlist ~label:"mux4" (Value.Netlist nl)
  in
  let layout_iid =
    Engine.install ctx ~entity:E.edited_layout
      (Value.Layout (Eda.Layout.place nl))
  in
  let fast =
    Engine.install ctx ~entity:"fast_extractor" ~label:"fast extractor"
      (Value.Tool (Value.Builtin "extractor:fast"))
  in
  let linter =
    Engine.install ctx ~entity:"lint_checker" ~label:"lint"
      (Value.Tool (Value.Builtin "lint:basic"))
  in

  (* the OLD extraction flow, served by the NEW tool variant *)
  let g, ext = Task_graph.create schema2 E.extracted_netlist in
  let g, fresh = Task_graph.expand g ext in
  let tool_node, lay_node =
    match fresh with [ a; b ] -> (a, b) | _ -> assert false
  in
  let g = Task_graph.specialize g tool_node "fast_extractor" in
  let run =
    Engine.execute ctx g ~bindings:[ (tool_node, fast); (lay_node, layout_iid) ]
  in
  Printf.printf "old extraction flow ran with the new tool variant: %d task\n"
    run.Engine.stats.Engine.executed;

  (* the NEW task, built by normal expansion *)
  let g, report = Task_graph.create schema2 "lint_report" in
  let g, fresh = Task_graph.expand g report in
  let lint_node, nl_node =
    match fresh with [ a; b ] -> (a, b) | _ -> assert false
  in
  let run =
    Engine.execute ctx g ~bindings:[ (lint_node, linter); (nl_node, nl_iid) ]
  in
  let _, text =
    Value.as_blob (Engine.payload ctx (Engine.result_of run report))
  in
  Printf.printf "lint report for mux4:\n%s\n"
    (String.concat "\n"
       (List.map (fun l -> "  " ^ l) (String.split_on_char '\n' text)));

  (* --- 3. what the static baseline pays ----------------------------- *)
  print_endline "\n# the frozen-flow baseline, for contrast";
  let catalog =
    [
      Baselines.Static_flow.of_task_graph ~name:"extract"
        (Standard_flows.fig5 ()).Standard_flows.f5_graph;
      Baselines.Static_flow.of_task_graph ~name:"verify"
        (Standard_flows.fig8b ()).Standard_flows.f8b_graph;
      Baselines.Static_flow.of_task_graph ~name:"resynth"
        (Standard_flows.fig4b ()).Standard_flows.f3_graph;
    ]
  in
  Printf.printf
    "replacing the extractor: dynamic = 0 flow edits; static = %d of %d \
     stored flows rewritten\n"
    (Baselines.Static_flow.maintenance_burden catalog ~tool:E.extractor)
    (List.length catalog)
