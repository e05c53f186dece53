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
    (* of_parts trusts its parts (the history checked them); validate
       is the full check *)
    expect_graph_error "validate rejects a cycle of_parts trusts" (fun () ->
        Task_graph.validate
          (Task_graph.of_parts schema
             [ (0, E.device_models); (1, E.device_models) ]
             [ (0, E.device_models, 1); (1, E.device_models, 0) ]));
    expect_graph_error "of_parts rejects duplicate node ids" (fun () ->
        Task_graph.of_parts schema [ (0, E.stimuli); (0, E.stimuli) ] []);
    expect_graph_error "validate rejects an ill-typed edge of_parts trusts"
      (fun () ->
        Task_graph.validate
          (Task_graph.of_parts schema
             [ (0, E.extracted_netlist); (1, E.stimuli) ]
             [ (0, E.layout, 1) ]));
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

(* The renderer's spec, written independently of [add_ascii_line]: its
   output must equal this byte for byte.  Two spaces per level down to
   depth 16; a deeper line is indented 32 spaces and carries
   "[depth] ". *)
let reference_ascii g =
  let buf = Buffer.create 256 in
  let printed = Hashtbl.create 16 in
  let indent depth =
    if depth <= 16 then String.make (2 * depth) ' '
    else Printf.sprintf "%s[%d] " (String.make 32 ' ') depth
  in
  let rec render depth role_label nid =
    let n = Task_graph.find g nid in
    let label =
      if role_label = "" then Printf.sprintf "%s#%d" n.Task_graph.entity nid
      else Printf.sprintf "%s: %s#%d" role_label n.Task_graph.entity nid
    in
    if Hashtbl.mem printed nid then
      Buffer.add_string buf
        (Printf.sprintf "%s%s (shared)\n" (indent depth) label)
    else begin
      Hashtbl.add printed nid ();
      Buffer.add_string buf (Printf.sprintf "%s%s\n" (indent depth) label);
      List.iter
        (fun (e : Task_graph.edge) ->
          let tag =
            match e.Task_graph.dep_kind with
            | Schema.Functional -> "f/" ^ e.Task_graph.role
            | Schema.Data_dep { optional = true } -> "d?/" ^ e.Task_graph.role
            | Schema.Data_dep { optional = false } -> "d/" ^ e.Task_graph.role
          in
          render (depth + 1) tag e.Task_graph.dst)
        (Task_graph.out_edges g nid)
    end
  in
  List.iter (render 0 "") (Task_graph.roots g);
  Buffer.contents buf

(* One line by the same spec, through [Printf]. *)
let reference_line ~depth ~tag ~role ~entity ~nid ~shared =
  Printf.sprintf "%s%s%s#%d%s\n"
    (if depth <= 16 then String.make (2 * depth) ' '
     else Printf.sprintf "%s[%d] " (String.make 32 ' ') depth)
    (if depth > 0 then tag ^ role ^ ": " else "")
    entity nid
    (if shared then " (shared)" else "")

(* Depths and node ids at the digit and indentation boundaries, and
   anywhere up to a million levels and [max_int]. *)
let gen_line =
  let open QCheck2.Gen in
  let boundary l = oneofl l in
  let m = Task_graph.max_indent in
  let depth =
    oneof [ boundary [ 0; 9; 10; m; m + 1 ]; int_range 0 1_000_000 ]
  in
  let nid =
    oneof [ boundary [ 0; 9; 10; 99; 100; max_int ]; int_range 0 max_int ]
  in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  tup6 depth (oneofl [ "f/"; "d/"; "d?/" ]) name name nid bool

(* One rendered line, structured: depth, edge tag and role (none for a
   root), entity, node id, shared mark. *)
type line = {
  l_depth : int;
  l_via : (string * string) option;
  l_entity : string;
  l_nid : int;
  l_shared : bool;
}

(* The lines the graph should render, in preorder. *)
let graph_lines g =
  let printed = Hashtbl.create 16 in
  let rec walk depth via nid acc =
    let shared = Hashtbl.mem printed nid in
    let acc =
      { l_depth = depth; l_via = via; l_entity = Task_graph.entity_of g nid;
        l_nid = nid; l_shared = shared }
      :: acc
    in
    if shared then acc
    else begin
      Hashtbl.add printed nid ();
      List.fold_left
        (fun acc (e : Task_graph.edge) ->
          walk (depth + 1)
            (Some (Task_graph.dep_tag e.Task_graph.dep_kind, e.Task_graph.role))
            e.Task_graph.dst acc)
        acc
        (Task_graph.out_edges g nid)
    end
  in
  List.rev
    (List.fold_left (fun acc r -> walk 0 None r acc) [] (Task_graph.roots g))

(* Parse a line of [to_ascii]'s text back, failing on anything off the
   format: the indentation must be even and at most 32 spaces, and a
   "[depth] " prefix appears exactly on lines deeper than 16. *)
let parse_line l =
  let fail () = QCheck2.Test.fail_reportf "malformed line %S" l in
  let len = String.length l in
  let rec spaces i = if i < len && l.[i] = ' ' then spaces (i + 1) else i in
  let sp = spaces 0 in
  let depth, rest =
    if sp < len && l.[sp] = '[' then
      match String.index_from_opt l sp ']' with
      | Some close when close + 1 < len && l.[close + 1] = ' ' -> (
        match int_of_string_opt (String.sub l (sp + 1) (close - sp - 1)) with
        | Some d when sp = 32 && d > 16 -> (d, close + 2)
        | _ -> fail ())
      | _ -> fail ()
    else if sp mod 2 = 0 && sp <= 32 then (sp / 2, sp)
    else fail ()
  in
  let body = String.sub l rest (len - rest) in
  let body, shared =
    match String.length body - 9 with
    | k when k > 0 && String.sub body k 9 = " (shared)" ->
      (String.sub body 0 k, true)
    | _ -> (body, false)
  in
  let via, label =
    if depth = 0 then (None, body)
    else
      let tag =
        List.find_opt
          (fun tag -> String.starts_with ~prefix:tag body)
          [ "f/"; "d?/"; "d/" ]
      in
      match (tag, String.index_opt body ':') with
      | Some tag, Some colon
        when colon + 1 < String.length body && body.[colon + 1] = ' ' ->
        let n = String.length tag in
        ( Some (tag, String.sub body n (colon - n)),
          String.sub body (colon + 2) (String.length body - colon - 2) )
      | _ -> fail ()
  in
  match String.rindex_opt label '#' with
  | None -> fail ()
  | Some hash -> (
    let digits = String.length label - hash - 1 in
    match int_of_string_opt (String.sub label (hash + 1) digits) with
    | None -> fail ()
    | Some nid ->
      { l_depth = depth; l_via = via; l_entity = String.sub label 0 hash;
        l_nid = nid; l_shared = shared })

let text_lines text =
  match List.rev (String.split_on_char '\n' text) with
  | "" :: lines -> List.rev lines
  | _ -> QCheck2.Test.fail_reportf "text does not end in a newline"

(* Shallow random flows, edit chains past the indentation cap, and
   wide flows. *)
let gen_flow =
  QCheck2.Gen.(
    oneof
      [
        map2 Flow_gen.random_flow (int_bound 1_000_000) (int_range 1 15);
        map (fun d -> fst (Standard_flows.edit_chain d)) (int_range 1 60);
        map (fun w -> fst (Standard_flows.wide_flow w)) (int_range 1 4);
      ])

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
    figure_golden "edit_chain_40" (fst (Standard_flows.edit_chain 40));
    t "indentation past the cap becomes a depth prefix" (fun () ->
        let g, _ = Standard_flows.edit_chain 200 in
        let text = Task_graph.to_ascii g in
        check Alcotest.string "deep chain" (reference_ascii g) text;
        check Alcotest.bool "depth 200 is spelled out" true
          (Util.contains text (String.make 32 ' ' ^ "[200] d?/netlist: ")));
    Util.qcheck ~count:200 "to_ascii equals the reference renderer" gen_flow
      (fun g -> Task_graph.to_ascii g = reference_ascii g);
    Util.qcheck ~count:200 "the capped text parses back to the graph's preorder"
      gen_flow (fun g ->
        List.map parse_line (text_lines (Task_graph.to_ascii g))
        = graph_lines g);
    Util.qcheck ~count:200 "no line is wider than the cap, depth and label"
      gen_flow (fun g ->
        let lines = graph_lines g in
        let width l =
          let label =
            (match l.l_via with
            | None -> 0
            | Some (tag, role) -> String.length tag + String.length role + 2)
            + String.length l.l_entity + 1
            + String.length (string_of_int l.l_nid)
            + if l.l_shared then 9 else 0
          in
          (* indentation, "[depth] ", label, newline *)
          (2 * Task_graph.max_indent)
          + String.length (string_of_int l.l_depth) + 3 + label + 1
        in
        String.length (Task_graph.to_ascii g)
        <= List.fold_left (fun acc l -> acc + width l) 0 lines);
    Util.qcheck ~count:1000 "add_ascii_line equals the Printf reference"
      gen_line (fun (depth, tag, role, entity, nid, shared) ->
        let buf = Buffer.create 64 in
        Task_graph.add_ascii_line buf ~depth ~tag ~role ~entity ~nid ~shared;
        Buffer.contents buf
        = reference_line ~depth ~tag ~role ~entity ~nid ~shared);
    t "a 420-deep chain renders in under 60 KB" (fun () ->
        let g, _ = Standard_flows.edit_chain 420 in
        let bytes = String.length (Task_graph.to_ascii g) in
        check Alcotest.bool (Printf.sprintf "%d bytes" bytes) true
          (bytes <= 60_000));
  ]

let suite =
  suite @ [ ("graph.bulk", bulk_tests); ("graph.render", render_tests) ]
