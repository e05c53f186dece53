(* Tests for the design-object store and the design-history database,
   including the chaining queries of Fig. 10 and the versioning of
   Fig. 11. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* A small scenario shared by the history tests: a netlist is edited
   twice (two versions), placed, extracted, and simulated. *)
type scenario = {
  w : Workspace.t;
  s_netlist : Store.iid;        (* v1 *)
  s_v2 : Store.iid;
  s_v3 : Store.iid;             (* child of v2 *)
  s_v3b : Store.iid;            (* second child of v2: a branch *)
  s_layout : Store.iid;         (* placed from v2 *)
  s_extracted : Store.iid;
}

let scenario () =
  let w = Workspace.create ~user:"hist" () in
  let ctx = Workspace.ctx w in
  let nl = Eda.Circuits.full_adder () in
  let v1 = Workspace.install_netlist w ~label:"fa v1" nl in
  let edit label net iid =
    let session =
      Workspace.install_editor_session w ~label
        (Eda.Edit_script.create ~name:label
           [ Eda.Edit_script.Insert_buffer { net; gname = "b_" ^ label } ])
    in
    let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, source = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
    let run =
      Engine.execute ctx g ~bindings:[ (editor, session); (source, iid) ]
    in
    Engine.result_of run out
  in
  let v2 = edit "e1" "x1" v1 in
  let v3 = edit "e2" "a1" v2 in
  let v3b = edit "e3" "a2" v2 in
  (* place v2 and extract *)
  let g, layout_node = Task_graph.create (Workspace.schema w) E.synthesized_layout in
  let g, fresh = Task_graph.expand ~include_optional:false g layout_node in
  let placer, nl_node = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
  let run =
    Engine.execute ctx g
      ~bindings:[ (placer, Workspace.tool w E.placer); (nl_node, v2) ]
  in
  let layout = Engine.result_of run layout_node in
  let g, ext = Task_graph.create (Workspace.schema w) E.extracted_netlist in
  let g, fresh = Task_graph.expand g ext in
  let extractor, lay_node = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
  let run =
    Engine.execute ctx g
      ~bindings:[ (extractor, Workspace.tool w E.extractor); (lay_node, layout) ]
  in
  {
    w;
    s_netlist = v1;
    s_v2 = v2;
    s_v3 = v3;
    s_v3b = v3b;
    s_layout = layout;
    s_extracted = Engine.result_of run ext;
  }

let store_tests =
  [
    t "instances share physical data by content" (fun () ->
        let store = Store.create () in
        let meta = Store.meta ~created_at:1 () in
        let a = Store.put store ~entity:"x" ~hash:"h1" ~meta "payload" in
        let b = Store.put store ~entity:"x" ~hash:"h1" ~meta "payload" in
        let c = Store.put store ~entity:"x" ~hash:"h2" ~meta "other" in
        check Alcotest.int "instances" 3 (Store.instance_count store);
        check Alcotest.int "payloads" 2 (Store.physical_count store);
        check Alcotest.bool "distinct iids" true (a <> b && b <> c));
    t "annotate updates metadata" (fun () ->
        let store = Store.create () in
        let meta = Store.meta ~created_at:1 () in
        let iid = Store.put store ~entity:"x" ~hash:"h" ~meta "p" in
        Store.annotate store iid ~label:"low pass filter"
          ~comment:"for the dac paper" ();
        let m = Store.meta_of store iid in
        check Alcotest.string "label" "low pass filter" m.Store.label;
        check Alcotest.string "comment" "for the dac paper" m.Store.comment);
    Util.expect_exn "missing instance"
      (function Ddf.Error.Ddf_error _ -> true | _ -> false)
      (fun () -> Store.find (Store.create ()) 42);
    t "browse by user, date window, keyword and text" (fun () ->
        let store = Store.create () in
        let put user at label keywords =
          Store.put store ~entity:"netlist" ~hash:(label ^ user)
            ~meta:(Store.meta ~user ~label ~keywords ~created_at:at ())
            "p"
        in
        let a = put "jbb" 2 "Low pass filter" [ "analog" ] in
        let b = put "director" 5 "CMOS Full adder" [ "cmos" ] in
        let c = put "sutton" 9 "Operational Amplifier" [ "analog" ] in
        let ids f = Store.browse store f in
        check (Alcotest.list Alcotest.int) "user" [ a ]
          (ids { Store.any_filter with Store.f_user = Some "jbb" });
        check (Alcotest.list Alcotest.int) "window" [ b ]
          (ids { Store.any_filter with Store.f_from = Some 3; Store.f_to = Some 8 });
        check (Alcotest.list Alcotest.int) "keyword" [ a; c ]
          (ids { Store.any_filter with Store.f_keywords = [ "analog" ] });
        check (Alcotest.list Alcotest.int) "text" [ b ]
          (ids { Store.any_filter with Store.f_text = Some "full" }));
    t "instances_of_entity keeps insertion order" (fun () ->
        let store = Store.create () in
        let meta = Store.meta ~created_at:1 () in
        let a = Store.put store ~entity:"x" ~hash:"1" ~meta "p" in
        let b = Store.put store ~entity:"x" ~hash:"2" ~meta "q" in
        check (Alcotest.list Alcotest.int) "order" [ a; b ]
          (Store.instances_of_entity store "x"));
  ]

let history_tests =
  [
    t "backward chaining finds the whole derivation" (fun () ->
        let s = scenario () in
        let records = History.backward_closure (Workspace.history s.w) s.s_extracted in
        (* extraction <- placement <- edit e1 *)
        check Alcotest.int "three records" 3 (List.length records));
    t "forward chaining finds all derived data" (fun () ->
        let s = scenario () in
        let derived = History.derived_instances (Workspace.history s.w) s.s_netlist in
        (* v2, v3, v3b, layout, extracted (+statistics) *)
        check Alcotest.bool "v3 derived" true (List.mem s.s_v3 derived);
        check Alcotest.bool "extracted derived" true
          (List.mem s.s_extracted derived);
        check Alcotest.bool "at least 5" true (List.length derived >= 5));
    t "trace reconstructs a valid task graph" (fun () ->
        let s = scenario () in
        let g, root, binding =
          History.trace (Workspace.history s.w) (Workspace.store s.w)
            (Workspace.schema s.w) s.s_extracted
        in
        Task_graph.validate g;
        check Alcotest.bool "root bound" true
          (List.assoc root binding = s.s_extracted);
        check Alcotest.string "root entity" E.extracted_netlist
          (Task_graph.entity_of g root));
    t "version parents follow edit inputs" (fun () ->
        let s = scenario () in
        let h = Workspace.history s.w in
        check (Alcotest.option Alcotest.int) "v2 <- v1" (Some s.s_netlist)
          (History.version_parent h s.s_v2);
        check (Alcotest.option Alcotest.int) "v1 is an origin" None
          (History.version_parent h s.s_netlist));
    t "version tree has the Fig. 11 shape" (fun () ->
        let s = scenario () in
        let tree = History.version_tree (Workspace.history s.w) s.s_netlist in
        check Alcotest.int "four versions" 4 (History.version_tree_size tree);
        (* v2 has two children: the branch *)
        let rec find t = if t.History.v_iid = s.s_v2 then Some t
          else List.fold_left (fun acc c -> match acc with Some _ -> acc | None -> find c) None t.History.v_children
        in
        match find tree with
        | Some v2 -> check Alcotest.int "branching" 2 (List.length v2.History.v_children)
        | None -> Alcotest.fail "v2 not in tree");
    t "versions from any member reach the whole tree" (fun () ->
        let s = scenario () in
        let h = Workspace.history s.w and st = Workspace.store s.w in
        let schema = Workspace.schema s.w in
        check
          Alcotest.(slist int compare)
          "same set"
          (History.versions h st schema s.s_netlist)
          (History.versions h st schema s.s_v3b));
    t "out_of_date is empty for fresh data" (fun () ->
        let s = scenario () in
        check Alcotest.bool "fresh" true
          (History.is_up_to_date (Workspace.history s.w) s.s_extracted));
    t "an edit makes downstream data stale" (fun () ->
        let s = scenario () in
        let ctx = Workspace.ctx s.w in
        (* new version of the layout *)
        let session =
          Workspace.install_layout_editor_session s.w
            [ Eda.Layout.Rename_layout "moved" ]
        in
        let g, out = Task_graph.create (Workspace.schema s.w) E.edited_layout in
        let g, fresh = Task_graph.expand ~include_optional:false g out in
        let editor = match fresh with [ e ] -> e | _ -> assert false in
        let g, lay = Task_graph.add_node g E.layout in
        let g = Task_graph.connect g ~user:out ~role:E.layout ~dep:lay in
        let _ =
          Engine.execute ctx g
            ~bindings:[ (editor, session); (lay, s.s_layout) ]
        in
        let stale =
          History.out_of_date (Workspace.history s.w) (Workspace.store s.w)
            (Workspace.schema s.w) s.s_extracted
        in
        check Alcotest.int "one stale input" 1 (List.length stale));
    t "query by template: simulations of this netlist" (fun () ->
        let s = scenario () in
        (* template: extracted_netlist <- (extractor, layout), layout bound *)
        let schema = Workspace.schema s.w in
        let g, ext = Task_graph.create schema E.extracted_netlist in
        let g, _ = Task_graph.expand g ext in
        let lay =
          match
            List.find_opt
              (fun (n : Task_graph.node) -> n.Task_graph.entity = E.layout)
              (Task_graph.nodes g)
          with
          | Some n -> n.Task_graph.nid
          | None -> Alcotest.fail "no layout node"
        in
        let results =
          History.query_template (Workspace.history s.w) (Workspace.store s.w) g
            ~bound:[ (lay, s.s_layout) ]
        in
        check Alcotest.int "one extraction" 1 (List.length results);
        let binding = List.hd results in
        check Alcotest.int "finds the netlist" s.s_extracted
          (List.assoc ext binding));
    t "template with an unmatched binding returns nothing" (fun () ->
        let s = scenario () in
        let schema = Workspace.schema s.w in
        let g, ext = Task_graph.create schema E.extracted_netlist in
        let g, _ = Task_graph.expand g ext in
        let lay =
          match
            List.find_opt
              (fun (n : Task_graph.node) -> n.Task_graph.entity = E.layout)
              (Task_graph.nodes g)
          with
          | Some n -> n.Task_graph.nid
          | None -> Alcotest.fail "no layout node"
        in
        (* bind the layout role to a netlist-unrelated instance *)
        let results =
          History.query_template (Workspace.history s.w) (Workspace.store s.w) g
            ~bound:[ (lay, s.s_extracted) ]
        in
        check Alcotest.int "none" 0 (List.length results));
    Util.expect_exn "double-producing an instance is rejected"
      (function
        | Ddf.Error.Ddf_error { code = `Conflict; _ } -> true | _ -> false)
      (fun () ->
        let h = History.create () and store = Store.create () in
        let schema = Standard_schemas.odyssey in
        let x =
          Store.put store ~entity:E.stimuli ~hash:"x"
            ~meta:(Store.meta ~created_at:1 ()) ()
        in
        let _ = History.add h store schema ~task_entity:E.stimuli ~tool:None
                  ~inputs:[] ~outputs:[ (E.stimuli, x) ] ~at:1 in
        History.add h store schema ~task_entity:E.stimuli ~tool:None ~inputs:[]
          ~outputs:[ (E.stimuli, x) ] ~at:2);
  ]

(* The browse before it read entity buckets: a scan of every instance
   through a predicate that lowercases label and comment and compares
   a substring at each offset.  The oracle for [Store.browse]. *)
let linear_browse store (f : Store.filter) =
  let needle = Option.map String.lowercase_ascii f.Store.f_text in
  let contains_lower hay ln =
    let lh = String.lowercase_ascii hay in
    let n = String.length ln and h = String.length lh in
    let rec at i = i + n <= h && (String.sub lh i n = ln || at (i + 1)) in
    n = 0 || at 0
  in
  List.filter
    (fun iid ->
      let m = Store.meta_of store iid in
      (match f.Store.f_entities with
      | None -> true
      | Some es -> List.mem (Store.entity_of store iid) es)
      && (match f.Store.f_user with None -> true | Some u -> m.Store.user = u)
      && (match f.Store.f_from with
         | None -> true
         | Some t -> m.Store.created_at >= t)
      && (match f.Store.f_to with None -> true | Some t -> m.Store.created_at <= t)
      && List.for_all (fun k -> List.mem k m.Store.keywords) f.Store.f_keywords
      &&
      match needle with
      | None -> true
      | Some ln ->
        contains_lower m.Store.label ln || contains_lower m.Store.comment ln)
    (Store.all_instances store)

(* Random stores (with annotations) and filters over every field:
   entity lists with duplicates, unknown entities and the empty list;
   keyword lists with repeats, a keyword no instance carries, and
   annotations that change an instance's keywords, clear them or leave
   them alone; mixed-case text, including the empty needle and needles
   longer than any label. *)
let browse_case =
  let open QCheck2.Gen in
  let entity = oneofl [ "netlist"; "layout"; "stimuli"; "plot" ] in
  let word =
    string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; ' ' ]) (int_range 0 6)
  in
  let keywords = list_size (int_bound 2) (oneofl [ "k1"; "k2"; "k3" ]) in
  let user = oneofl [ "ann"; "bob" ] in
  let instance =
    let+ entity = entity
    and+ user = user
    and+ label = word
    and+ comment = word
    and+ keywords = keywords
    and+ at = int_bound 20 in
    (entity, Store.meta ~user ~label ~comment ~keywords ~created_at:at ())
  in
  let annotation =
    let+ iid = int_range 1 300
    and+ label = opt word
    and+ keywords =
      frequency [ (2, pure None); (1, pure (Some [])); (2, map Option.some keywords) ]
    in
    (iid, label, keywords)
  in
  let filter =
    let+ f_entities = opt (list_size (int_bound 4) (oneof [ entity; pure "ghost" ]))
    and+ f_user = opt user
    and+ f_from = opt (int_bound 20)
    and+ f_to = opt (int_bound 20)
    and+ f_keywords = list_size (int_bound 3) (oneofl [ "k1"; "k2"; "k3"; "k4" ])
    and+ f_text = opt word in
    { Store.f_entities; f_user; f_from; f_to; f_keywords; f_text }
  in
  triple (list_size (int_bound 300) instance) (list_size (int_bound 10) annotation)
    (list_size (int_range 1 5) filter)

let browse_tests =
  [
    Util.qcheck ~count:300 "browse equals a linear scan on every filter field"
      browse_case (fun (instances, annotations, filters) ->
        let store = Store.create () in
        List.iteri
          (fun i (entity, meta) ->
            ignore (Store.put store ~entity ~hash:(string_of_int i) ~meta ()))
          instances;
        (* each filter's keywords alone too: answers long enough to
           show their order *)
        let filters =
          filters
          @ List.map
              (fun f -> { Store.any_filter with Store.f_keywords = f.Store.f_keywords })
              filters
        in
        (* a reader pinned before the annotations keeps its answers *)
        let pinned = Store.snapshot store in
        let before = List.map (linear_browse store) filters in
        List.iter
          (fun (iid, label, keywords) ->
            if Store.mem store iid then
              Store.annotate store iid ?label ?keywords ())
          annotations;
        (* the keyword index, live and pinned, files exactly each
           keyword's instances *)
        Store.Snapshot.check_keyword_index pinned;
        Store.Snapshot.check_keyword_index (Store.snapshot store);
        List.for_all2
          (fun f want ->
            Store.browse store f = linear_browse store f
            && Store.Snapshot.browse pinned f = want)
          filters before);
  ]

let suite =
  [ ("store", store_tests); ("store.browse", browse_tests);
    ("history", history_tests) ]
