(* Shared workload builders for the experiment harness. *)

open Ddf
module E = Standard_schemas.E

(* A workspace with the standard catalog plus a circuit installed. *)
let workspace_with circuit =
  let w = Workspace.create ~user:"bench" () in
  let nl_iid = Workspace.install_netlist w circuit in
  (w, nl_iid)

(* A populated store: [n] instances across entities, users and dates,
   for the browser benchmarks (E9). *)
let populated_store n =
  let w = Workspace.create ~user:"bench" () in
  let ctx = Workspace.ctx w in
  let users = [| "jbb"; "director"; "sutton"; "jacome"; "cobourn" |] in
  let keywords = [| "analog"; "cmos"; "adder"; "filter"; "opamp"; "ram" |] in
  let rng = Eda.Rng.create 17 in
  for i = 1 to n do
    let nl =
      Eda.Circuits.random
        ~name:(Printf.sprintf "circuit_%d" i)
        ~n_inputs:3 ~n_gates:(3 + (i mod 5))
        rng
    in
    ignore
      (Engine.install ctx ~entity:E.edited_netlist
         ~label:(Printf.sprintf "Design %d" i)
         ~user:users.(i mod Array.length users)
         ~keywords:
           [ keywords.(i mod Array.length keywords);
             keywords.((i / 2) mod Array.length keywords) ]
         (Value.Netlist nl))
  done;
  w

(* The fig5 flow over a full adder, bound and ready to run. *)
let bound_fig5 () =
  let w = Workspace.create ~user:"bench" () in
  let reference = Eda.Circuits.full_adder () in
  let layout_iid =
    Workspace.install_layout w (Eda.Layout.place reference)
  in
  let reference_iid = Workspace.install_netlist w reference in
  let stimuli_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.exhaustive reference.Eda.Netlist.primary_inputs)
  in
  let f = Standard_flows.fig5 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f5_graph
      ~already:
        [
          (f.Standard_flows.f5_layout, layout_iid);
          (f.Standard_flows.f5_stimuli, stimuli_iid);
          (f.Standard_flows.f5_reference, reference_iid);
          (f.Standard_flows.f5_device_models, Workspace.default_device_models w);
        ]
  in
  (w, f, bindings)

(* A deep design history: a chain of [depth] editing tasks executed for
   real, returning the workspace and the newest version (E10). *)
let edit_history depth =
  let w = Workspace.create ~user:"bench" () in
  let ctx = Workspace.ctx w in
  let base = Eda.Circuits.ripple_adder 2 in
  let v0 = Workspace.install_netlist w base in
  let current = ref v0 in
  for i = 1 to depth do
    let session =
      Workspace.install_editor_session w
        ~label:(Printf.sprintf "edit %d" i)
        (Eda.Edit_script.create
           ~name:(Printf.sprintf "e%d" i)
           [ Eda.Edit_script.Set_drive ("gx0", [| 1; 2; 4 |].(i mod 3));
             Eda.Edit_script.Rename (Printf.sprintf "adder2_v%d" i) ])
    in
    let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, source =
      match fresh with [ a; b ] -> (a, b) | _ -> assert false
    in
    let run =
      Engine.execute ctx g ~bindings:[ (editor, session); (source, !current) ]
    in
    current := Engine.result_of run out
  done;
  (w, v0, !current)

(* Extraction branches over circuits of very different sizes: the
   skewed workload for the scheduling-heuristic ablation. *)
let bound_skewed_flow () =
  let w = Workspace.create ~user:"bench" () in
  let g = ref (Task_graph.empty (Workspace.schema w)) in
  let bindings = ref [] in
  List.iteri
    (fun i bits ->
      let g1, extracted = Task_graph.add_node !g E.extracted_netlist in
      let g1, fresh = Task_graph.expand g1 extracted in
      g := g1;
      List.iter
        (fun nid ->
          let entity = Task_graph.entity_of !g nid in
          if entity = E.extractor then
            bindings := (nid, Workspace.tool w E.extractor) :: !bindings
          else if entity = E.layout then
            bindings :=
              ( nid,
                Workspace.install_layout w
                  (Eda.Layout.place
                     ~name_suffix:(Printf.sprintf "_sk%d" i)
                     (Eda.Circuits.ripple_adder bits)) )
              :: !bindings)
        fresh)
    [ 1; 1; 2; 2; 4; 8; 16 ];
  (w, !g, !bindings)

(* A wide flow of [width] independent extraction branches, bound. *)
let bound_wide_flow width =
  let w = Workspace.create ~user:"bench" () in
  let g, _roots = Standard_flows.wide_flow width in
  let bindings =
    Workspace.bind_catalog_tools w g
      ~already:
        (List.mapi
           (fun i nid ->
             ( nid,
               Workspace.install_layout w
                 (Eda.Layout.place
                    ~name_suffix:(Printf.sprintf "_w%d" i)
                    (Eda.Circuits.ripple_adder 4)) ))
           (Workspace.find_nodes g E.layout))
  in
  (w, g, bindings)
