(* E5 / Fig. 5: the complex flow -- entity reuse, multiple outputs,
   construction from any starting entity, execution. *)

open Ddf
open Bechamel
module E = Standard_schemas.E

let run () =
  Bench_util.header "E5" "Fig. 5: a complex flow with reuse and multiple outputs";
  Bench_util.paper_claim
    "this flow could be constructed by starting at any one of the \
     entities present and performing expand operations until built up";

  let f = Standard_flows.fig5 () in
  Printf.printf "%s" (Task_graph.to_ascii f.Standard_flows.f5_graph);

  Bench_util.section "structure";
  let g = f.Standard_flows.f5_graph in
  Bench_util.print_table
    [ "nodes"; "invocations"; "roots"; "reused entities"; "multi-output tasks" ]
    [
      [
        string_of_int (Task_graph.size g);
        string_of_int (List.length (Task_graph.invocations g));
        string_of_int (List.length (Task_graph.roots g));
        string_of_int
          (List.length
             (List.filter
                (fun (n : Task_graph.node) ->
                  List.length (Task_graph.users g n.Task_graph.nid) >= 2)
                (Task_graph.nodes g)));
        string_of_int
          (List.length
             (List.filter
                (fun (i : Task_graph.invocation) ->
                  List.length i.Task_graph.outputs >= 2)
                (Task_graph.invocations g)));
      ];
    ];

  (* construction from a different starting point reaches the same flow *)
  Bench_util.section "construction from another starting entity";
  (* start from the layout (data-based) instead of the goal *)
  let schema = Standard_flows.schema in
  let g2, layout = Task_graph.create schema E.edited_layout in
  let g2, extracted, _ =
    Task_graph.expand_up ~role:E.layout g2 layout ~consumer:E.extracted_netlist
  in
  let g2, _stats, _ =
    Task_graph.expand_up ~role:E.layout
      ~reuse:[ ("tool", match Task_graph.dep_of g2 extracted "tool" with
                        | Some t -> t | None -> assert false) ]
      g2 layout ~consumer:E.extraction_statistics
  in
  Printf.printf
    "layout-first construction gives one extraction invocation: %b\n"
    (List.length
       (List.filter
          (fun (i : Task_graph.invocation) -> List.length i.Task_graph.outputs = 2)
          (Task_graph.invocations g2))
     = 1);

  Bench_util.section "execution";
  let w, f, bindings = Workloads.bound_fig5 () in
  let run = Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings in
  Format.printf "first run : %a@." Engine.pp_stats run.Engine.stats;
  let run2 = Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings in
  Format.printf "second run: %a@." Engine.pp_stats run2.Engine.stats;
  let store = Store.snapshot (Workspace.store w) in
  Printf.printf "store: %d instances over %d physical objects\n"
    (Store.Snapshot.instance_count store)
    (Store.Snapshot.physical_count store);

  Bench_util.section "latency";
  Bench_util.run_bechamel ~name:"fig5"
    [
      Test.make ~name:"construct fig5" (Staged.stage Standard_flows.fig5);
      Test.make ~name:"invocations of fig5"
        (Staged.stage (fun () -> Task_graph.invocations g));
      Test.make ~name:"execute fig5 (all memo hits)"
        (Staged.stage (fun () ->
             Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings));
    ]
