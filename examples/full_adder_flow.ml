(* The complex flow of Fig. 5 on a CMOS full adder, followed by the
   parallel execution of Fig. 6.

   One extractor invocation produces two outputs (the extracted netlist
   and the extraction statistics); the extracted netlist is reused by
   two sub-tasks (the circuit being simulated, and the verification
   against a reference netlist); the flow has several roots.  Disjoint
   branches then execute in parallel on a simulated machine pool. *)

open Ddf
module E = Standard_schemas.E

let () =
  let w = Workspace.create ~user:"brockman" () in
  let ctx = Workspace.ctx w in

  (* design data: a full-adder layout (placed from the reference
     netlist, as a layout designer would deliver it) *)
  let reference = Eda.Circuits.full_adder () in
  let layout = Eda.Layout.place reference in
  let reference_iid = Workspace.install_netlist w ~label:"full adder spec" reference in
  let layout_iid = Workspace.install_layout w ~label:"full adder layout" layout in
  let stimuli_iid =
    Workspace.install_stimuli w ~label:"exhaustive fa"
      (Eda.Stimuli.exhaustive reference.Eda.Netlist.primary_inputs)
  in

  print_endline "# the Fig. 5 flow (entity reuse + multiple outputs)";
  let f = Standard_flows.fig5 () in
  let g = f.Standard_flows.f5_graph in
  print_string (Task_graph.to_ascii g);
  Printf.printf "invocations: %d (extractor run once for two outputs)\n\n"
    (List.length (Task_graph.invocations g));

  let bindings =
    Workspace.bind_catalog_tools w g
      ~already:
        [
          (f.Standard_flows.f5_layout, layout_iid);
          (f.Standard_flows.f5_stimuli, stimuli_iid);
          (f.Standard_flows.f5_reference, reference_iid);
          (f.Standard_flows.f5_device_models, Workspace.default_device_models w);
        ]
  in
  let run = Engine.execute ctx g ~bindings in
  Format.printf "run: %a@." Engine.pp_stats run.Engine.stats;

  let show nid what =
    let iid = Engine.result_of run nid in
    Format.printf "%s -> #%d: %a@." what iid Value.pp (Workspace.payload w iid)
  in
  show f.Standard_flows.f5_extracted "extracted netlist ";
  show f.Standard_flows.f5_statistics "extraction stats  ";
  show f.Standard_flows.f5_performance "performance       ";
  show f.Standard_flows.f5_verification "verification      ";

  (* the two outputs of the extractor share one derivation record *)
  let h = History.snapshot (Workspace.history w) in
  let r1 =
    History.Snapshot.derivation_of h
      (Engine.result_of run f.Standard_flows.f5_extracted)
  and r2 =
    History.Snapshot.derivation_of h
      (Engine.result_of run f.Standard_flows.f5_statistics)
  in
  Printf.printf "co-produced outputs share a record: %b\n\n"
    (match (r1, r2) with
    | Some a, Some b -> a.History.rid = b.History.rid
    | Some _, None | None, Some _ | None, None -> false);

  (* ---------------- Fig. 6: parallel execution --------------------- *)
  print_endline "# Fig. 6: disjoint branches execute in parallel";
  let f6 = Standard_flows.fig6 () in
  let g6 = f6.Standard_flows.f6_graph in
  Printf.printf "branches under the verification root: %d disjoint groups\n"
    (List.length
       (List.filter
          (fun (_, s) -> Task_graph.Int_set.cardinal s > 1)
          (Task_graph.disjoint_branches g6 f6.Standard_flows.f6_verification)));

  (* a second layout so the two branches extract different designs *)
  let layout_b = Eda.Layout.place ~name_suffix:"_layout_b" (Eda.Circuits.c17 ()) in
  let layout_b_iid = Workspace.install_layout w ~label:"second layout" layout_b in
  let layout_leaves = Workspace.find_nodes g6 E.layout in
  let bindings =
    Workspace.bind_catalog_tools w g6
      ~already:
        (match layout_leaves with
        | [ a; b ] -> [ (a, layout_iid); (b, layout_b_iid) ]
        | _ -> assert false)
  in
  let run6 = Engine.execute ~memo:false ctx g6 ~bindings in
  List.iter
    (fun machines ->
      let s = Parallel.schedule g6 ~costs:run6.Engine.costs ~machines in
      Format.printf "%a@." Parallel.pp_schedule s)
    [ 1; 2; 4 ]
