(* End-to-end integration fuzzing: random designer behaviour builds a
   flow (Flow_gen), every leaf gets a plausible instance, and the flow
   executes through the engine.  Invariants checked per random flow:

   - execution succeeds and assigns every node;
   - an identical re-run is 100% memo hits with the same instances;
   - the workspace survives a save/load round trip with hashes intact. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* One payload per root entity, installed lazily per workspace. *)
let binder w =
  let cache = Hashtbl.create 16 in
  let ctx = Workspace.ctx w in
  let memo entity mk =
    match Hashtbl.find_opt cache entity with
    | Some iid -> iid
    | None ->
      let iid = mk () in
      Hashtbl.add cache entity iid;
      iid
  in
  let fa = Eda.Circuits.full_adder () in
  let netlist () =
    memo "netlist" (fun () -> Workspace.install_netlist w fa)
  in
  let stimuli () =
    memo "stimuli" (fun () ->
        Workspace.install_stimuli w
          (Eda.Stimuli.exhaustive fa.Eda.Netlist.primary_inputs))
  in
  let instance_for entity =
    let schema = Workspace.schema w in
    let root = Schema.root_of schema entity in
    let install value = Engine.install ctx ~entity value in
    if root = E.netlist then
      (* respect the subtype: the instance entity must fit the node *)
      if entity = E.netlist || entity = E.edited_netlist then netlist ()
      else memo entity (fun () -> install (Value.Netlist fa))
    else if root = E.layout then
      memo entity (fun () -> install (Value.Layout (Eda.Layout.place fa)))
    else if root = E.stimuli then stimuli ()
    else if root = E.device_models then Workspace.default_device_models w
    else if root = E.circuit then
      memo entity (fun () ->
          install
            (Value.Circuit
               { Value.c_models = Eda.Device_model.default; c_netlist = fa }))
    else if root = E.performance then
      memo entity (fun () ->
          install
            (Value.Performance
               (Eda.Performance.analyze fa
                  (Eda.Stimuli.exhaustive fa.Eda.Netlist.primary_inputs))))
    else if root = E.verification then
      memo entity (fun () ->
          install (Value.Verification (Eda.Lvs.compare_netlists fa fa)))
    else if root = E.performance_plot then
      memo entity (fun () ->
          install
            (Value.Plot
               (Eda.Plot.of_performance
                  (Eda.Performance.analyze fa
                     (Eda.Stimuli.exhaustive fa.Eda.Netlist.primary_inputs)))))
    else if root = E.extraction_statistics then
      memo entity (fun () ->
          let _, stats = Eda.Extract.run (Eda.Layout.place fa) in
          install (Value.Extraction_statistics stats))
    else if root = E.transistor_netlist then
      memo entity (fun () ->
          install (Value.Transistor_view (Eda.Transistor.of_netlist fa)))
    else if root = E.sim_options then
      memo entity (fun () -> install (Value.Sim_options Value.default_sim_options))
    else if root = E.placement_options then
      memo entity (fun () ->
          install (Value.Placement_options Value.default_placement_options))
    else if root = E.optimizer_options then
      memo entity (fun () ->
          install (Value.Optimizer_options Value.default_optimizer_options))
    else if entity = E.netlist_editor then
      memo entity (fun () ->
          Workspace.install_editor_session w
            (Eda.Edit_script.create ~name:"fuzz" [ Eda.Edit_script.Rename "fuzzed" ]))
    else if entity = E.layout_editor then
      memo entity (fun () ->
          Workspace.install_layout_editor_session w
            [ Eda.Layout.Rename_layout "fuzzed_layout" ])
    else if entity = E.device_model_editor then
      memo entity (fun () ->
          Engine.install ctx ~entity
            (Value.Tool
               (Value.Scripted_model_editor [ Eda.Device_model.Scale_delay 1.1 ])))
    else if entity = E.optimizer then
      memo entity (fun () ->
          Engine.install ctx ~entity
            (Value.Tool (Value.Builtin "optimizer:hill_climb")))
    else if entity = E.compiled_simulator then
      memo entity (fun () ->
          Engine.install ctx ~entity
            (Value.Tool (Value.Compiled_simulator (Eda.Sim_compiled.compile fa))))
    else if Schema.is_tool schema entity then Workspace.tool w entity
    else
      Alcotest.failf "fuzz binder: no instance strategy for %s" entity
  in
  instance_for

let auto_bindings w g =
  let bind = binder w in
  List.map (fun nid -> (nid, bind (Task_graph.entity_of g nid)))
    (Task_graph.leaves g)

let executes_and_memoizes (seed, steps) =
  let g = Flow_gen.random_flow seed steps in
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let bindings = auto_bindings w g in
  let r1 = Engine.execute ctx g ~bindings in
  let all_assigned =
    List.for_all
      (fun nid -> List.mem_assoc nid r1.Engine.assignment)
      (Task_graph.node_ids g)
  in
  let r2 = Engine.execute ctx g ~bindings in
  all_assigned
  && r2.Engine.stats.Engine.executed = 0
  && r2.Engine.stats.Engine.composed = 0
  && r1.Engine.assignment = r2.Engine.assignment

let survives_persistence (seed, steps) =
  let g = Flow_gen.random_flow seed steps in
  let w = Workspace.create () in
  let _ = Engine.execute (Workspace.ctx w) g ~bindings:(auto_bindings w g) in
  let s2 = Persist.load Standard_schemas.odyssey (Persist.save (Workspace.session w)) in
  let st1 = Workspace.store w and st2 = (Session.context s2).Engine.store in
  Store.instance_count st1 = Store.instance_count st2
  && List.for_all
       (fun iid -> Store.hash_of st1 iid = Store.hash_of st2 iid)
       (Store.all_instances st1)

let gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 18))

let suite =
  [
    ( "integration.fuzz",
      [
        Util.qcheck ~count:40 "random flows execute and memoize" gen
          executes_and_memoizes;
        Util.qcheck ~count:15 "workspaces survive persistence" gen
          survives_persistence;
        t "multi-function payload shares physical storage" (fun () ->
            (* the same physical tool instantiated for two entity types
               (section 3.3): one payload, two instances *)
            let w = Workspace.create () in
            let ctx = Workspace.ctx w in
            let payload = Value.Tool (Value.Builtin "magic:multi") in
            let a = Engine.install ctx ~entity:E.layout_editor payload in
            let b = Engine.install ctx ~entity:E.extractor payload in
            check Alcotest.bool "distinct instances" true (a <> b);
            check Alcotest.string "one physical payload"
              (Store.hash_of (Workspace.store w) a)
              (Store.hash_of (Workspace.store w) b));
      ] );
  ]
