(* The one-walk trace text (History.Snapshot.trace_text) against the
   graph route it replaces: Task_graph.to_ascii of History.trace plus
   the instance-count line, byte for byte, and the same exception on
   every history the graph build rejects.  Also the forward fold
   behind [derived_instances] against the record-list route. *)

open Ddf

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* A schema with every shape a trace can take: shared tools, two roles
   of one target (the same instance may fill both), an optional role
   that chains an entity to itself (edit chains), a subtype, a
   composite with no tool, and an abstract entity. *)
let schema =
  Schema.create "trace-walk"
    [
      Schema.tool "tool_a" [];
      Schema.tool "tool_b" [];
      Schema.entity "src" [];
      Schema.entity ~parent:"src" "src_x" [];
      Schema.entity "item"
        [
          Schema.functional "tool_a";
          Schema.data ~role:"left" "src";
          Schema.data ~role:"right" "src";
          Schema.data ~role:"prev" ~optional:true "item";
        ];
      Schema.entity "pair"
        [
          Schema.functional "tool_b";
          Schema.data ~role:"a" "item";
          Schema.data ~role:"b" "item";
        ];
      Schema.entity "bundle"
        [
          Schema.data ~role:"p" "pair";
          Schema.data ~role:"q" ~optional:true "src";
        ];
      Schema.entity "abs" [];
      Schema.entity ~parent:"abs" "abs_1" [];
    ]

type world = {
  store : unit Store.t;
  hist : History.t;
  mutable clock : int;
  by_entity : (string, Store.iid list) Hashtbl.t;
}

let world () =
  { store = Store.create (); hist = History.create (); clock = 0;
    by_entity = Hashtbl.create 16 }

let put w entity =
  w.clock <- w.clock + 1;
  let iid =
    Store.put w.store ~entity ~hash:(string_of_int w.clock)
      ~meta:(Store.meta ~created_at:w.clock ()) ()
  in
  let l = Option.value (Hashtbl.find_opt w.by_entity entity) ~default:[] in
  Hashtbl.replace w.by_entity entity (iid :: l);
  iid

(* A record deriving a new [entity] instance, plus the [also]
   entities co-produced with it; returns the first output. *)
let record w ?tool ?(also = []) entity inputs =
  let out = put w entity in
  let outputs = (entity, out) :: List.map (fun e -> (e, put w e)) also in
  w.clock <- w.clock + 1;
  ignore
    (History.add w.hist w.store schema ~task_entity:entity ~tool ~inputs
       ~outputs ~at:w.clock);
  out

(* A random instance of one of [entities], newest first with odds 1/2
   (so chains grow deep), else uniformly; created when none exists. *)
let pick rng w entities =
  let pool =
    List.concat_map
      (fun e -> Option.value (Hashtbl.find_opt w.by_entity e) ~default:[])
      entities
  in
  match pool with
  | [] -> put w (List.hd entities)
  | newest :: _ ->
    if Random.State.bool rng then newest
    else List.nth pool (Random.State.int rng (List.length pool))

let tool_a w rng = pick rng w [ "tool_a" ]
let src w rng = pick rng w [ "src"; "src_x" ]

let add_item rng w =
  let left = src w rng in
  (* the same instance in two roles, a third of the time *)
  let right = if Random.State.int rng 3 = 0 then left else src w rng in
  let prev =
    if Random.State.bool rng then [ ("prev", pick rng w [ "item" ]) ] else []
  in
  (* a co-produced side output, a quarter of the time *)
  let also = if Random.State.int rng 4 = 0 then [ "src_x" ] else [] in
  record w ~tool:(tool_a w rng) ~also "item"
    ([ ("left", left); ("right", right) ] @ prev)

let add_pair rng w =
  let a = pick rng w [ "item" ] in
  let b = if Random.State.bool rng then a else pick rng w [ "item" ] in
  record w ~tool:(pick rng w [ "tool_b" ]) "pair" [ ("a", a); ("b", b) ]

let add_bundle rng w =
  let q = if Random.State.bool rng then [ ("q", src w rng) ] else [] in
  (* a tool on a composite has no role to fill: the trace drops it *)
  let tool = if Random.State.int rng 4 = 0 then Some (tool_a w rng) else None in
  record w ?tool "bundle" (("p", pick rng w [ "pair" ]) :: q)

(* Two edits of one base, recorded as a sync sibling conflict. *)
let add_siblings rng w =
  let base = pick rng w [ "item" ] in
  let edit () =
    record w ~tool:(tool_a w rng) "item"
      [ ("left", src w rng); ("right", src w rng); ("prev", base) ]
  in
  let ours = edit () in
  let theirs = edit () in
  ignore
    (History.add_conflict w.hist ~base ~ours ~theirs ~origin:"peer" ~at:w.clock)

(* One fault of each kind the graph build rejects. *)
let add_fault rng w =
  match Random.State.int rng 8 with
  | 0 ->
    record w ~tool:(tool_a w rng) "item"
      [ ("left", src w rng); ("bogus", src w rng) ]
  | 1 ->
    (* ill-typed: a pair where a src belongs *)
    record w ~tool:(tool_a w rng) "item"
      [ ("left", pick rng w [ "pair" ]); ("right", src w rng) ]
  | 2 ->
    (* ill-typed tool *)
    record w ~tool:(pick rng w [ "tool_b" ]) "item"
      [ ("left", src w rng); ("right", src w rng) ]
  | 3 ->
    record w ~tool:(tool_a w rng) "item"
      [ ("left", src w rng); ("left", src w rng) ]
  | 4 -> record w "abs" [ ("x", src w rng) ]
  | 5 -> record w "src" [ ("left", src w rng) ]
  | 6 ->
    (* an instance of an entity the schema does not know *)
    record w ~tool:(tool_a w rng) "item"
      [ ("left", put w "ghost"); ("right", src w rng) ]
  | _ ->
    (* a two-record cycle *)
    let x = put w "item" and y = put w "item" in
    let link out prev =
      w.clock <- w.clock + 1;
      ignore
        (History.add w.hist w.store schema ~task_entity:"item"
           ~tool:(Some (tool_a w rng))
           ~inputs:[ ("left", src w rng); ("right", src w rng); ("prev", prev) ]
           ~outputs:[ ("item", out) ] ~at:w.clock)
    in
    link x y;
    link y x;
    x

let random_history ~faults seed ops =
  let rng = Random.State.make [| seed |] in
  let w = world () in
  for _ = 1 to ops do
    match Random.State.int rng 12 with
    | 0 -> ignore (put w (if Random.State.bool rng then "tool_a" else "src_x"))
    | 1 | 2 | 3 | 4 | 5 -> ignore (add_item rng w)
    | 6 | 7 -> ignore (add_pair rng w)
    | 8 -> ignore (add_bundle rng w)
    | 9 -> add_siblings rng w
    | _ -> if faults then ignore (add_fault rng w) else ignore (add_item rng w)
  done;
  w

(* An edit chain [depth] deep over one shared tool and one shared
   source per side. *)
let edit_chain depth =
  let w = world () in
  let tool = put w "tool_a" and l = put w "src" and r = put w "src_x" in
  let top = ref (record w ~tool "item" [ ("left", l); ("right", r) ]) in
  for _ = 2 to depth do
    top :=
      record w ~tool "item" [ ("left", l); ("right", r); ("prev", !top) ]
  done;
  (w, !top)

(* The graph route the trace text replaces. *)
let graph_route snap store iid =
  let g, _, binding = History.Snapshot.trace snap store schema iid in
  Printf.sprintf "%s(%d instances in the derivation)\n" (Task_graph.to_ascii g)
    (List.length binding)

let outcome f =
  match f () with s -> Ok s | exception e -> Error (Printexc.to_string e)

let same_trace w iid =
  let snap = History.snapshot w.hist and store = Store.snapshot w.store in
  let old = outcome (fun () -> graph_route snap store iid) in
  let walk =
    outcome (fun () -> History.Snapshot.trace_text snap store schema iid)
  in
  if old <> walk then
    QCheck2.Test.fail_reportf "trace of #%d differs:@.graph: %s@.walk:  %s" iid
      (match old with Ok s -> s | Error e -> "raised " ^ e)
      (match walk with Ok s -> s | Error e -> "raised " ^ e);
  true

let all_iids w = Store.all_instances w.store

let gen_history = QCheck2.Gen.(pair int (int_range 1 60))

let walk_tests =
  [
    Util.qcheck ~count:200 "trace text equals to_ascii of the graph route"
      gen_history (fun (seed, ops) ->
        let w = random_history ~faults:false seed ops in
        List.for_all (same_trace w) (all_iids w));
    Util.qcheck ~count:200 "faulty histories fail with the same exception"
      gen_history (fun (seed, ops) ->
        let w = random_history ~faults:true seed ops in
        List.for_all (same_trace w) (all_iids w));
    Util.qcheck ~count:3 "edit chains 1000+ deep render identically"
      QCheck2.Gen.(pair int (int_range 1000 1300))
      (fun (seed, depth) ->
        let w, top = edit_chain depth in
        (* random work on top of the chain: siblings, pairs, bundles *)
        let rng = Random.State.make [| seed |] in
        for _ = 1 to 20 do
          match Random.State.int rng 3 with
          | 0 -> add_siblings rng w
          | 1 -> ignore (add_pair rng w)
          | _ -> ignore (add_bundle rng w)
        done;
        same_trace w top
        && List.for_all (same_trace w)
             (List.filteri (fun i _ -> i mod 97 = 0) (all_iids w)));
    t "a 1500-deep chain: one line per node, the sources shared" (fun () ->
        let w, top = edit_chain 1500 in
        let text =
          History.trace_text w.hist w.store schema top
        in
        let lines = String.split_on_char '\n' text in
        let count sub =
          List.length (List.filter (fun l -> Util.contains l sub) lines)
        in
        (* 1500 items + tool + two sources *)
        check Alcotest.bool "footer" true
          (Util.contains text "(1503 instances in the derivation)\n");
        check Alcotest.int "items" 1500 (count "item#");
        check Alcotest.int "tool lines" 1500 (count "f/tool: tool_a#");
        check Alcotest.int "shared" (3 * 1499) (count "(shared)"));
  ]

(* Error parity, by name: an undeclared role and an ill-typed input
   (the faults a schema edit leaves in old records), and a cycle. *)
let parity name fault =
  t name (fun () ->
      let w = world () in
      let tool = put w "tool_a" in
      let out = fault w tool in
      let snap = History.snapshot w.hist and store = Store.snapshot w.store in
      let expect =
        match graph_route snap store out with
        | _ -> Alcotest.fail "the graph route accepted the fault"
        | exception (Task_graph.Graph_error _ as e) -> e
      in
      match History.Snapshot.trace_text snap store schema out with
      | _ -> Alcotest.fail "the walk accepted the fault"
      | exception e ->
        check Alcotest.string "same exception" (Printexc.to_string expect)
          (Printexc.to_string e))

let parity_tests =
  [
    parity "an undeclared role raises the graph build's error" (fun w tool ->
        let s = put w "src" in
        record w ~tool "item" [ ("left", s); ("right", s); ("colour", s) ]);
    parity "an ill-typed input raises the graph build's error" (fun w tool ->
        let s = put w "src" in
        let it = record w ~tool "item" [ ("left", s); ("right", s) ] in
        record w ~tool "item" [ ("left", it); ("right", s) ]);
    parity "a cycle raises the graph build's error" (fun w tool ->
        let x = put w "item" and y = put w "item" in
        let s = put w "src" in
        ignore
          (History.add w.hist w.store schema ~task_entity:"item"
             ~tool:(Some tool)
             ~inputs:[ ("left", s); ("right", s); ("prev", y) ]
             ~outputs:[ ("item", x) ] ~at:100);
        ignore
          (History.add w.hist w.store schema ~task_entity:"item"
             ~tool:(Some tool)
             ~inputs:[ ("left", s); ("right", s); ("prev", x) ]
             ~outputs:[ ("item", y) ] ~at:101);
        x);
  ]

(* [derived_instances] used to be the record list of the forward
   closure, flattened to outputs and deduplicated. *)
let derived_via_records snap iid =
  History.Snapshot.forward_closure snap iid
  |> List.concat_map (fun (r : History.record) -> List.map snd r.History.outputs)
  |> List.sort_uniq compare

let uses_tests =
  [
    Util.qcheck ~count:200 "derived instances equal the record-list route"
      gen_history (fun (seed, ops) ->
        let w = random_history ~faults:true seed ops in
        let snap = History.snapshot w.hist in
        List.for_all
          (fun iid ->
            History.Snapshot.derived_instances snap iid
            = derived_via_records snap iid)
          (all_iids w));
  ]

let suite =
  [
    ("trace_walk", walk_tests);
    ("trace_walk.errors", parity_tests);
    ("history.uses", uses_tests);
  ]
