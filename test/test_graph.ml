(* Tests for task graphs (lib/graph): construction operations, the
   figure flows, and random-operation invariants. *)

open Ddf_schema
open Ddf_graph
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let schema = Standard_schemas.odyssey

let expect_graph_error name f =
  Util.expect_exn name
    (function Task_graph.Graph_error _ -> true | _ -> false)
    f

(* ------------------------------------------------------------------ *)

let operation_tests =
  [
    t "create a one-node flow" (fun () ->
        let g, nid = Task_graph.create schema E.performance in
        check Alcotest.int "size" 1 (Task_graph.size g);
        check Alcotest.string "entity" E.performance (Task_graph.entity_of g nid));
    t "expand fills every role" (fun () ->
        let g, nid = Task_graph.create schema E.performance in
        let g, fresh = Task_graph.expand g nid in
        check Alcotest.int "four deps" 4 (List.length fresh);
        check Alcotest.bool "expanded" true (Task_graph.status g nid = Task_graph.Expanded));
    t "expand without optional roles" (fun () ->
        let g, nid = Task_graph.create schema E.performance in
        let g, fresh = Task_graph.expand ~include_optional:false g nid in
        check Alcotest.int "three deps" 3 (List.length fresh);
        ignore g);
    t "expanding an abstract entity raises Needs_specialization" (fun () ->
        let g, nid = Task_graph.create schema E.netlist in
        match Task_graph.expand g nid with
        | _ -> Alcotest.fail "expected Needs_specialization"
        | exception Task_graph.Needs_specialization (e, subs) ->
          check Alcotest.string "entity" E.netlist e;
          check Alcotest.int "methods" 3 (List.length subs));
    t "specialize then expand (Fig. 4b)" (fun () ->
        let f = Standard_flows.fig4b () in
        let g = f.Standard_flows.f3_graph in
        Task_graph.validate g;
        check Alcotest.string "specialized" E.extracted_netlist
          (Task_graph.entity_of g f.Standard_flows.f3_source_netlist));
    expect_graph_error "specialize to a non-subtype" (fun () ->
        let g, nid = Task_graph.create schema E.netlist in
        Task_graph.specialize g nid E.layout);
    t "specialize to itself is identity" (fun () ->
        let g, nid = Task_graph.create schema E.netlist in
        let g' = Task_graph.specialize g nid E.netlist in
        check Alcotest.bool "equal" true (Canonical.equal g g'));
    expect_graph_error "connect with wrong type" (fun () ->
        let g, perf = Task_graph.create schema E.performance in
        let g, lay = Task_graph.add_node g E.layout in
        Task_graph.connect g ~user:perf ~role:E.circuit ~dep:lay);
    expect_graph_error "connect an unknown role" (fun () ->
        let g, perf = Task_graph.create schema E.performance in
        let g, c = Task_graph.add_node g E.circuit in
        Task_graph.connect g ~user:perf ~role:"nonsense" ~dep:c);
    expect_graph_error "double-fill a role" (fun () ->
        let g, perf = Task_graph.create schema E.performance in
        let g, c = Task_graph.add_node g E.circuit in
        let g = Task_graph.connect g ~user:perf ~role:E.circuit ~dep:c in
        let g, c2 = Task_graph.add_node g E.circuit in
        Task_graph.connect g ~user:perf ~role:E.circuit ~dep:c2);
    expect_graph_error "cycle rejected" (fun () ->
        (* device_models optionally depends on device_models *)
        let g, a = Task_graph.create schema E.device_models in
        Task_graph.connect g ~user:a ~role:E.device_models ~dep:a);
    t "expand_up incorporates a whole task" (fun () ->
        let g, nid = Task_graph.create schema E.performance in
        let g, plot, fresh =
          Task_graph.expand_up g nid ~consumer:E.performance_plot
        in
        check Alcotest.int "plotter appears" 1 (List.length fresh);
        check Alcotest.bool "complete" true
          (Task_graph.status g plot = Task_graph.Expanded));
    expect_graph_error "expand_up with ambiguous role fails" (fun () ->
        let g, nid = Task_graph.create schema E.edited_netlist in
        let g, _, _ = Task_graph.expand_up g nid ~consumer:E.verification in
        g);
    t "expand_up with explicit role" (fun () ->
        let g, nid = Task_graph.create schema E.edited_netlist in
        let g, v, _ =
          Task_graph.expand_up ~role:"candidate" g nid ~consumer:E.verification
        in
        check Alcotest.bool "edge exists" true
          (Task_graph.dep_of g v "candidate" = Some nid));
    t "unexpand removes the subtree" (fun () ->
        let g, nid = Task_graph.create schema E.performance in
        let before = Canonical.canonical g in
        let g2, _ = Task_graph.expand g nid in
        let g3 = Task_graph.unexpand g2 nid in
        check Alcotest.string "restored" before (Canonical.canonical g3));
    t "unexpand keeps shared nodes" (fun () ->
        let f = Standard_flows.fig5 () in
        let g = Task_graph.unexpand f.Standard_flows.f5_graph
                  f.Standard_flows.f5_circuit in
        (* the extracted netlist is still used by the verification *)
        check Alcotest.bool "extracted kept" true
          (Task_graph.mem g f.Standard_flows.f5_extracted);
        Task_graph.validate g);
    t "reuse joins sub-tasks (Fig. 5)" (fun () ->
        let f = Standard_flows.fig5 () in
        let users =
          Task_graph.users f.Standard_flows.f5_graph f.Standard_flows.f5_extracted
        in
        check Alcotest.int "two users" 2 (List.length users));
  ]

let analysis_tests =
  [
    t "topological order puts dependencies first" (fun () ->
        let f = Standard_flows.fig5 () in
        let g = f.Standard_flows.f5_graph in
        let order = Task_graph.topological_order g in
        let pos nid =
          let rec find i = function
            | [] -> Alcotest.fail "missing node"
            | x :: rest -> if x = nid then i else find (i + 1) rest
          in
          find 0 order
        in
        List.iter
          (fun (n : Task_graph.node) ->
            List.iter
              (fun (e : Task_graph.edge) ->
                check Alcotest.bool "dep before user" true
                  (pos e.Task_graph.dst < pos n.Task_graph.nid))
              (Task_graph.out_edges g n.Task_graph.nid))
          (Task_graph.nodes g));
    t "invocations group co-produced outputs" (fun () ->
        let f = Standard_flows.fig5 () in
        let invs = Task_graph.invocations f.Standard_flows.f5_graph in
        let extractor_inv =
          List.find
            (fun (i : Task_graph.invocation) ->
              List.mem f.Standard_flows.f5_extracted i.Task_graph.outputs)
            invs
        in
        check
          Alcotest.(slist int compare)
          "both outputs"
          [ f.Standard_flows.f5_extracted; f.Standard_flows.f5_statistics ]
          extractor_inv.Task_graph.outputs);
    t "composite entities yield tool-less invocations" (fun () ->
        let f = Standard_flows.fig5 () in
        let invs = Task_graph.invocations f.Standard_flows.f5_graph in
        let circuit_inv =
          List.find
            (fun (i : Task_graph.invocation) ->
              i.Task_graph.outputs = [ f.Standard_flows.f5_circuit ])
            invs
        in
        check Alcotest.bool "no tool" true (circuit_inv.Task_graph.tool = None));
    t "fig6 branches are disjoint" (fun () ->
        let f = Standard_flows.fig6 () in
        let a = List.hd f.Standard_flows.f6_branch_a in
        let b = List.hd f.Standard_flows.f6_branch_b in
        check Alcotest.bool "disjoint" true
          (Task_graph.disjoint f.Standard_flows.f6_graph a b));
    t "fig5 statuses" (fun () ->
        let f = Standard_flows.fig5 () in
        let g = f.Standard_flows.f5_graph in
        check Alcotest.bool "layout is a leaf" true
          (Task_graph.status g f.Standard_flows.f5_layout
           = Task_graph.Unexpanded);
        check Alcotest.bool "flow is complete" true (Task_graph.complete g));
    t "subflow of the performance is executable alone" (fun () ->
        let f = Standard_flows.fig5 () in
        let sub =
          Task_graph.subflow f.Standard_flows.f5_graph
            f.Standard_flows.f5_performance
        in
        Task_graph.validate sub;
        check Alcotest.bool "smaller" true
          (Task_graph.size sub < Task_graph.size f.Standard_flows.f5_graph);
        check Alcotest.bool "has its root" true
          (List.mem f.Standard_flows.f5_performance (Task_graph.roots sub)));
    t "edit chain has the requested depth" (fun () ->
        let g, _top = Standard_flows.edit_chain 5 in
        let editors =
          List.filter
            (fun (n : Task_graph.node) -> n.Task_graph.entity = E.netlist_editor)
            (Task_graph.nodes g)
        in
        check Alcotest.int "editors" 5 (List.length editors));
    t "wide flow has independent roots" (fun () ->
        let g, roots = Standard_flows.wide_flow 4 in
        check Alcotest.int "roots" 4 (List.length roots);
        match roots with
        | a :: b :: _ ->
          check Alcotest.bool "disjoint" true (Task_graph.disjoint g a b)
        | _ -> Alcotest.fail "missing roots");
  ]

(* property tests over random designer behaviour *)
let property_tests =
  let open QCheck2 in
  let flow_gen =
    Gen.map
      (fun (seed, steps) -> Flow_gen.random_flow seed steps)
      Gen.(pair (int_bound 1_000_000) (int_range 1 30))
  in
  [
    Util.qcheck "random flows always validate" flow_gen (fun g ->
        Task_graph.validate g;
        true);
    Util.qcheck "random flows are acyclic with full coverage" flow_gen (fun g ->
        List.length (Task_graph.topological_order g) = Task_graph.size g);
    Util.qcheck "roots and leaves are consistent" flow_gen (fun g ->
        List.for_all (fun r -> Task_graph.in_edges g r = []) (Task_graph.roots g)
        && List.for_all
             (fun l -> Task_graph.out_edges g l = [])
             (Task_graph.leaves g));
    Util.qcheck "every invocation output appears exactly once" flow_gen
      (fun g ->
        let outs =
          List.concat_map
            (fun (i : Task_graph.invocation) -> i.Task_graph.outputs)
            (Task_graph.invocations g)
        in
        List.length outs = List.length (List.sort_uniq compare outs));
    Util.qcheck "expand/unexpand round-trips" flow_gen (fun g ->
        let g, nid = Task_graph.add_node g E.performance in
        let before = Canonical.canonical g in
        let g2, _ = Task_graph.expand g nid in
        let g3 = Task_graph.unexpand g2 nid in
        String.equal before (Canonical.canonical g3));
    Util.qcheck "canonical is invariant under node renumbering" flow_gen
      (fun g ->
        (* rebuild the graph with shifted ids via the sexp round-trip *)
        let s = Sexp_form.to_string g in
        let g' = Sexp_form.of_string Flow_gen.schema s in
        Canonical.equal g g');
  ]

let suite =
  [
    ("graph.operations", operation_tests);
    ("graph.analysis", analysis_tests);
    ("graph.properties", property_tests);
  ]

let bulk_tests =
  [
    t "of_parts assembles a valid graph" (fun () ->
        let g =
          Task_graph.of_parts schema
            [ (0, E.extracted_netlist); (1, E.extractor); (2, E.edited_layout) ]
            [ (0, "tool", 1); (0, E.layout, 2) ]
        in
        Task_graph.validate g;
        check Alcotest.int "three nodes" 3 (Task_graph.size g);
        (* further incremental edits continue from fresh ids *)
        let g, nid = Task_graph.add_node g E.stimuli in
        check Alcotest.bool "fresh id" true (nid >= 3);
        ignore g);
    expect_graph_error "of_parts rejects cycles" (fun () ->
        Task_graph.of_parts schema
          [ (0, E.device_models); (1, E.device_models) ]
          [ (0, E.device_models, 1); (1, E.device_models, 0) ]);
    expect_graph_error "of_parts rejects duplicate node ids" (fun () ->
        Task_graph.of_parts schema [ (0, E.stimuli); (0, E.stimuli) ] []);
    expect_graph_error "of_parts rejects ill-typed edges" (fun () ->
        Task_graph.of_parts schema
          [ (0, E.extracted_netlist); (1, E.stimuli) ]
          [ (0, E.layout, 1) ]);
    Util.qcheck ~count:40 "traces equal incremental reconstruction"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 15))
      (fun (seed, steps) ->
        (* of_parts over a random flow's own parts is isomorphic to it *)
        let g = Flow_gen.random_flow seed steps in
        let nodes =
          List.map
            (fun (n : Task_graph.node) -> (n.Task_graph.nid, n.Task_graph.entity))
            (Task_graph.nodes g)
        in
        let edges =
          List.concat_map
            (fun (n : Task_graph.node) ->
              List.map
                (fun (e : Task_graph.edge) ->
                  (n.Task_graph.nid, e.Task_graph.role, e.Task_graph.dst))
                (Task_graph.out_edges g n.Task_graph.nid))
            (Task_graph.nodes g)
        in
        Canonical.equal g (Task_graph.of_parts schema nodes edges));
  ]

(* The renderer before lines, indentation and tags moved into
   [add_ascii_line]: the reference its output must equal byte for
   byte. *)
let reference_ascii g =
  let buf = Buffer.create 256 in
  let printed = Hashtbl.create 16 in
  let rec render indent role_label nid =
    let n = Task_graph.find g nid in
    let label =
      if role_label = "" then Printf.sprintf "%s#%d" n.Task_graph.entity nid
      else Printf.sprintf "%s: %s#%d" role_label n.Task_graph.entity nid
    in
    if Hashtbl.mem printed nid then
      Buffer.add_string buf (Printf.sprintf "%s%s (shared)\n" indent label)
    else begin
      Hashtbl.add printed nid ();
      Buffer.add_string buf (Printf.sprintf "%s%s\n" indent label);
      List.iter
        (fun (e : Task_graph.edge) ->
          let tag =
            match e.Task_graph.dep_kind with
            | Schema.Functional -> "f/" ^ e.Task_graph.role
            | Schema.Data_dep { optional = true } -> "d?/" ^ e.Task_graph.role
            | Schema.Data_dep { optional = false } -> "d/" ^ e.Task_graph.role
          in
          render (indent ^ "  ") tag e.Task_graph.dst)
        (Task_graph.out_edges g nid)
    end
  in
  List.iter (render "" "") (Task_graph.roots g);
  Buffer.contents buf

(* The figure flows the E3-E8 experiments print, against their text
   as committed. *)
let figure_golden name g =
  t (name ^ " renders as committed") (fun () ->
      check Alcotest.string name
        (Util.golden (name ^ ".txt"))
        (Task_graph.to_ascii g))

let render_tests =
  [
    figure_golden "fig2" (Standard_flows.fig2 ()).Standard_flows.f2_graph;
    figure_golden "fig3b" (Standard_flows.fig3 ()).Standard_flows.f3_graph;
    figure_golden "fig4a" (Standard_flows.fig4a ()).Standard_flows.f3_graph;
    figure_golden "fig4b" (Standard_flows.fig4b ()).Standard_flows.f3_graph;
    figure_golden "fig5" (Standard_flows.fig5 ()).Standard_flows.f5_graph;
    figure_golden "fig6" (Standard_flows.fig6 ()).Standard_flows.f6_graph;
    figure_golden "fig8a" (Standard_flows.fig8a ()).Standard_flows.f8a_graph;
    figure_golden "fig8b" (Standard_flows.fig8b ()).Standard_flows.f8b_graph;
    figure_golden "edit_chain_3" (fst (Standard_flows.edit_chain 3));
    figure_golden "wide_flow_2" (fst (Standard_flows.wide_flow 2));
    t "indentation past the spaces string stays two per level" (fun () ->
        let g, _ = Standard_flows.edit_chain 200 in
        check Alcotest.string "deep chain" (reference_ascii g)
          (Task_graph.to_ascii g));
    Util.qcheck ~count:200 "to_ascii equals the reference renderer"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 15))
      (fun (seed, steps) ->
        let g = Flow_gen.random_flow seed steps in
        Task_graph.to_ascii g = reference_ascii g);
  ]

let suite =
  suite @ [ ("graph.bulk", bulk_tests); ("graph.render", render_tests) ]
