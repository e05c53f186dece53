(* The one-walk trace text (History.Snapshot.trace_text) against the
   graph route it replaces: Task_graph.to_ascii of History.trace plus
   the instance-count line, byte for byte.  Every record the graph
   build rejected, [History.add] now refuses with the graph build's
   exception, so neither route meets one.  Also the forward fold
   behind [derived_instances] against the record-list route. *)

open Ddf

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* A schema with every shape a trace can take: shared tools, a tool
   derived during design, two roles of one target (the same instance
   may fill both), an optional role that chains an entity to itself
   (edit chains), a subtype, a composite with no tool, and an abstract
   entity. *)
let schema =
  Schema.create "trace-walk"
    [
      Schema.tool "tool_a" [];
      Schema.tool "tool_b" [ Schema.data ~role:"from" ~optional:true "item" ];
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

(* A [tool_b] derived from an item, as a compiled simulator is from a
   netlist: a pair's trace and backward closure continue below it. *)
let add_tool rng w = record w "tool_b" [ ("from", pick rng w [ "item" ]) ]

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

(* A record [add] must refuse, and the exception the record's task
   graph raises: [Task_graph.connect]'s for a bad edge (with the
   output's iid as the node), [validate]'s for a cycle. *)
type fault = { attempt : unit -> unit; expect : exn }

(* The record deriving [out], already in the store, as [entity]. *)
let derive w ?tool entity out inputs () =
  w.clock <- w.clock + 1;
  ignore
    (History.add w.hist w.store schema ~task_entity:entity ~tool ~inputs
       ~outputs:[ (entity, out) ] ~at:w.clock)

(* One fault of each kind, by the name of its test. *)
let fault_kinds =
  let graph_error m = Task_graph.Graph_error m in
  (* an item record, with its expected error given the output *)
  let item rng ?(tool = tool_a) w inputs expect =
    let tool = tool w rng in
    let out = put w "item" in
    { attempt = derive w ~tool "item" out inputs; expect = expect out }
  in
  [
    ( "an undeclared role raises the graph build's error",
      fun rng w ->
        let l = src w rng and b = src w rng in
        item rng w [ ("left", l); ("bogus", b) ] (fun _ ->
            graph_error "entity item has no dependency role \"bogus\"") );
    ( "an ill-typed input raises the graph build's error",
      fun rng w ->
        let p = pick rng w [ "pair" ] and r = src w rng in
        item rng w [ ("left", p); ("right", r) ] (fun _ ->
            graph_error "role \"left\" of item requires src, not pair") );
    ( "an ill-typed tool raises the graph build's error",
      fun rng w ->
        let l = src w rng and r = src w rng in
        item rng w
          ~tool:(fun w rng -> pick rng w [ "tool_b" ])
          [ ("left", l); ("right", r) ]
          (fun _ ->
            graph_error "role \"tool\" of item requires tool_a, not tool_b") );
    ( "a role filled twice raises the graph build's error",
      fun rng w ->
        let a = src w rng and b = src w rng in
        item rng w [ ("left", a); ("left", b) ] (fun out ->
            graph_error
              (Printf.sprintf "role \"left\" of node %d is already filled" out)) );
    ( "roles on an abstract output raise the graph build's error",
      fun rng w ->
        let x = src w rng in
        let out = put w "abs" in
        { attempt = derive w "abs" out [ ("x", x) ];
          expect = Task_graph.Needs_specialization ("abs", [ "abs_1" ]) } );
    ( "roles on the abstract src raise the graph build's error",
      fun rng w ->
        (* src has the subtype src_x: abstract, not a source *)
        let l = src w rng in
        let out = put w "src" in
        { attempt = derive w "src" out [ ("left", l) ];
          expect = Task_graph.Needs_specialization ("src", [ "src_x" ]) } );
    ( "an unknown entity raises the graph build's error",
      fun rng w ->
        let ghost = put w "ghost" and r = src w rng in
        item rng w [ ("left", ghost); ("right", r) ] (fun _ ->
            Schema.Schema_error
              "unknown entity \"ghost\" in schema \"trace-walk\"") );
    ( "a cycle raises the graph build's error",
      fun rng w ->
        let x = put w "item" and y = put w "item" in
        let link out prev =
          let tool = tool_a w rng in
          let l = src w rng and r = src w rng in
          derive w ~tool "item" out [ ("left", l); ("right", r); ("prev", prev) ]
        in
        (* accepted: y has no derivation yet *)
        link x y ();
        { attempt = link y x; expect = Task_graph.cycle } );
  ]

(* Attempt a fault: [add] raises its exception and leaves the history's
   size and tick as they were. *)
let refused w f =
  let before = (History.size w.hist, History.tick w.hist) in
  match f.attempt () with
  | () -> Error "add accepted the record"
  | exception e ->
    let got = Printexc.to_string e and want = Printexc.to_string f.expect in
    if got <> want then Error (Printf.sprintf "add raised %s, not %s" got want)
    else if (History.size w.hist, History.tick w.hist) <> before then
      Error "the refused record changed the history's size or tick"
    else Ok ()

let add_fault rng w =
  let name, kind =
    List.nth fault_kinds (Random.State.int rng (List.length fault_kinds))
  in
  match refused w (kind rng w) with
  | Ok () -> ()
  | Error m -> QCheck2.Test.fail_reportf "%s: %s" name m

let grow rng w ~faults ops =
  for _ = 1 to ops do
    match Random.State.int rng 13 with
    | 0 -> ignore (put w (if Random.State.bool rng then "tool_a" else "src_x"))
    | 1 | 2 | 3 | 4 | 5 -> ignore (add_item rng w)
    | 6 | 7 -> ignore (add_pair rng w)
    | 8 -> ignore (add_bundle rng w)
    | 9 -> add_siblings rng w
    | 10 -> ignore (add_tool rng w)
    | _ -> if faults then add_fault rng w else ignore (add_item rng w)
  done

let random_history ~faults seed ops =
  let w = world () in
  grow (Random.State.make [| seed |]) w ~faults ops;
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
    Util.qcheck ~count:200 "add refuses each fault, the rest trace alike"
      gen_history (fun (seed, ops) ->
        (* [add_fault] fails the test unless [add] refuses the fault *)
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
    t "a short trace after a deep one allocates no large buffer" (fun () ->
        let deep, deep_top = edit_chain 400 and short, short_top = edit_chain 2 in
        let trace w top = History.trace_text w.hist w.store schema top in
        let major_words f =
          Gc.minor ();
          let before = (Gc.quick_stat ()).Gc.major_words in
          ignore (Sys.opaque_identity (f ()));
          Gc.minor ();
          (Gc.quick_stat ()).Gc.major_words -. before
        in
        ignore (major_words (fun () -> trace deep deep_top));
        let words = major_words (fun () -> trace short short_top) in
        if words >= 1000. then
          Alcotest.failf "a 2-edit trace allocated %.0f major words" words);
  ]

(* Each fault kind, by name: [add] refuses the record with the error
   its graph raises, the history keeps its size and tick, and every
   instance, the refused output included (a leaf), traces alike by both
   routes. *)
let refusal_tests =
  List.map
    (fun (name, kind) ->
      t name (fun () ->
          let w = world () in
          let rng = Random.State.make [| 7 |] in
          (match refused w (kind rng w) with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
          check Alcotest.bool "every instance traces alike" true
            (List.for_all (same_trace w) (all_iids w))))
    fault_kinds

(* A source declares no construction roles, so a record producing one
   (the engine's batch merges, roles part0, part1, ...) is not walked:
   the instance is a leaf of both routes. *)
let source_leaf_tests =
  [
    t "a record producing a source ends the trace there" (fun () ->
        let w = world () in
        let tool = put w "tool_a" in
        let merged =
          record w "src_x" [ ("part0", put w "src_x"); ("part1", put w "src") ]
        in
        let top = record w ~tool "item" [ ("left", merged); ("right", merged) ] in
        let snap = History.snapshot w.hist and store = Store.snapshot w.store in
        let text = History.Snapshot.trace_text snap store schema top in
        check Alcotest.string "same text by both routes"
          (graph_route snap store top) text;
        check Alcotest.bool "three instances" true
          (Util.contains text "(3 instances in the derivation)\n");
        check Alcotest.bool "the merge record stays in the closure" true
          (List.length (History.Snapshot.backward_closure snap top) = 2));
  ]

module type CHAINING = sig
  val uses_of : Store.iid -> History.record list
  val forward_closure : Store.iid -> History.record list
  val backward_closure : Store.iid -> History.record list
  val derived_instances : Store.iid -> Store.iid list
end

(* The chaining reads by the record-list route: a scan of every record
   the snapshot holds, with no index. *)
let uses_via_records snap iid =
  History.Snapshot.records snap
  |> List.concat_map (fun (r : History.record) ->
         (* one entry per role the instance fills, tool last *)
         List.filter_map
           (fun i -> if i = iid then Some r else None)
           (List.map snd r.History.inputs @ Option.to_list r.History.tool))

let producer_via_records snap iid =
  List.find_opt
    (fun (r : History.record) -> List.exists (fun (_, o) -> o = iid) r.outputs)
    (History.Snapshot.records snap)

(* Preorder over the users, oldest use first. *)
let forward_via_records snap iid =
  let seen = Hashtbl.create 16 and acc = ref [] in
  let rec go iid =
    List.iter
      (fun (r : History.record) ->
        if not (Hashtbl.mem seen r.rid) then begin
          Hashtbl.add seen r.rid ();
          acc := r :: !acc;
          List.iter (fun (_, o) -> go o) r.outputs
        end)
      (uses_via_records snap iid)
  in
  go iid;
  List.rev !acc

(* Preorder over the producers, inputs in record order, then the tool. *)
let backward_via_records snap iid =
  let seen = Hashtbl.create 16 and acc = ref [] in
  let rec go iid =
    match producer_via_records snap iid with
    | None -> ()
    | Some r ->
      if not (Hashtbl.mem seen r.History.rid) then begin
        Hashtbl.add seen r.History.rid ();
        acc := r :: !acc;
        List.iter (fun (_, i) -> go i) r.History.inputs;
        Option.iter go r.History.tool
      end
  in
  go iid;
  List.rev !acc

(* [derived_instances] used to be the record list of the forward
   closure, flattened to outputs and deduplicated. *)
let derived_via_records snap iid =
  forward_via_records snap iid
  |> List.concat_map (fun (r : History.record) -> List.map snd r.History.outputs)
  |> List.sort_uniq compare

(* Every chaining read of [iid] against the record-list route over
   [snap]: [uses_of] (the index keeps users newest first), the order
   of both closures, and [derived_instances].  [reads] are the live
   reads or [snap]'s own. *)
let chains_alike snap (reads : (module CHAINING)) iid =
  let module R = (val reads) in
  let rids = List.map (fun (r : History.record) -> r.History.rid) in
  let alike name got want =
    if got <> want then
      QCheck2.Test.fail_reportf "%s of #%d: [%s], not [%s]" name iid
        (String.concat "; " (List.map string_of_int got))
        (String.concat "; " (List.map string_of_int want))
  in
  alike "uses_of" (rids (R.uses_of iid)) (rids (uses_via_records snap iid));
  alike "forward_closure"
    (rids (R.forward_closure iid))
    (rids (forward_via_records snap iid));
  alike "backward_closure"
    (rids (R.backward_closure iid))
    (rids (backward_via_records snap iid));
  alike "derived_instances" (R.derived_instances iid)
    (derived_via_records snap iid);
  true

(* Derive a fresh item's chain [k] long, then try to derive the item
   from the chain's tip: [add] must find the cycle through [k] users. *)
let long_cycle rng w k =
  let base = put w "item" in
  let link out prev =
    derive w ~tool:(tool_a w rng) "item" out
      [ ("left", src w rng); ("right", src w rng); ("prev", prev) ]
  in
  let tip =
    List.fold_left
      (fun prev _ ->
        let out = put w "item" in
        link out prev ();
        out)
      base (List.init k Fun.id)
  in
  { attempt = link base tip; expect = Task_graph.cycle }

let uses_tests =
  [
    Util.qcheck ~count:200 "derived instances equal the record-list route"
      QCheck2.Gen.(triple int (int_range 1 40) (int_range 0 40))
      (fun (seed, ops, more) ->
        let rng = Random.State.make [| seed |] in
        let w = world () in
        grow rng w ~faults:true ops;
        let pinned = History.snapshot w.hist in
        grow rng w ~faults:true more;
        (match refused w (long_cycle rng w (1 + Random.State.int rng 5)) with
        | Ok () -> ()
        | Error m -> QCheck2.Test.fail_reportf "a long cycle: %s" m);
        let live =
          (module struct
            let uses_of = History.uses_of w.hist
            let forward_closure = History.forward_closure w.hist
            let backward_closure = History.backward_closure w.hist
            let derived_instances = History.derived_instances w.hist
          end : CHAINING)
        and frozen =
          (module struct
            let uses_of = History.Snapshot.uses_of pinned
            let forward_closure = History.Snapshot.forward_closure pinned
            let backward_closure = History.Snapshot.backward_closure pinned
            let derived_instances = History.Snapshot.derived_instances pinned
          end : CHAINING)
        in
        let latest = History.snapshot w.hist in
        (* the pinned snapshot holds exactly the records added before it *)
        let before_pin (r : History.record) =
          r.History.rid < History.Snapshot.tick pinned
        in
        if
          History.Snapshot.records pinned
          <> List.filter before_pin (History.records w.hist)
        then QCheck2.Test.fail_reportf "the pinned snapshot sees a later record";
        List.for_all
          (fun iid ->
            chains_alike latest live iid && chains_alike pinned frozen iid)
          (all_iids w));
  ]

(* Three domains trace and run [uses] over one pinned view at once.
   Each walk marks the instances and records it meets in a scratch it
   takes from one shared spare; were one scratch handed to two walks
   at a time, a walk would see the other's marks and repeat or skip
   nodes.  Every domain must read exactly the sequential answers. *)
let domain_tests =
  [
    t "three domains trace and chain over one view as one would" (fun () ->
        let w, top = edit_chain 300 in
        grow (Random.State.make [| 11 |]) w ~faults:false 60;
        let snap = History.snapshot w.hist and store = Store.snapshot w.store in
        let iids = Array.of_list (top :: all_iids w) in
        let read iid =
          ( History.Snapshot.trace_text snap store schema iid,
            History.Snapshot.derived_instances snap iid,
            List.map
              (fun (r : History.record) -> r.History.rid)
              (History.Snapshot.backward_closure snap iid) )
        in
        let expected = Array.map read iids in
        let n = Array.length iids in
        let reader stride () =
          let wrong = ref 0 in
          for round = 0 to 3 do
            for k = 0 to n - 1 do
              (* the deep chain's tip every other read *)
              let i = if k land 1 = 0 then 0 else (k * stride + round) mod n in
              if read iids.(i) <> expected.(i) then incr wrong
            done
          done;
          !wrong
        in
        let domains = List.map (fun s -> Domain.spawn (reader s)) [ 1; 7; 13 ] in
        let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
        check Alcotest.int "no domain read a wrong answer" 0 wrong);
  ]

let suite =
  [
    ("trace_walk", walk_tests);
    ("trace_walk.domains", domain_tests);
    ("trace_walk.errors", refusal_tests);
    ("trace_walk.sources", source_leaf_tests);
    ("history.uses", uses_tests);
  ]
