(* Tests for workspace persistence: the save/load round trip over a
   session with real derivations, tools-as-data and catalog flows. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* A workspace exercising every payload class: netlists, layouts,
   stimuli, circuit composites, performances, verifications, plots,
   statistics, transistor views, options, editor sessions and a
   compiled simulator. *)
let rich_session () =
  let w = Workspace.create ~user:"persist" () in
  let ctx = Workspace.ctx w in
  let session = Workspace.session w in
  (* run fig5 *)
  let reference = Eda.Circuits.full_adder () in
  let layout_iid = Workspace.install_layout w (Eda.Layout.place reference) in
  let reference_iid = Workspace.install_netlist w reference in
  let stimuli_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.exhaustive reference.Eda.Netlist.primary_inputs)
  in
  let f = Standard_flows.fig5 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f5_graph
      ~already:
        [ (f.Standard_flows.f5_layout, layout_iid);
          (f.Standard_flows.f5_stimuli, stimuli_iid);
          (f.Standard_flows.f5_reference, reference_iid);
          (f.Standard_flows.f5_device_models, Workspace.default_device_models w) ]
  in
  let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
  (* an editor session + edit *)
  let edit =
    Workspace.install_editor_session w
      (Eda.Edit_script.create
         [ Eda.Edit_script.Insert_buffer { net = "x1"; gname = "pb" } ])
  in
  let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
  let g, fresh = Task_graph.expand g out in
  let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
  let _ = Engine.execute ctx g ~bindings:[ (editor, edit); (src, reference_iid) ] in
  (* a compiled simulator (Fig. 2) + transistor view *)
  let f2 = Standard_flows.fig2 () in
  let b2 =
    Workspace.bind_catalog_tools w f2.Standard_flows.f2_graph
      ~already:
        [ (f2.Standard_flows.f2_netlist, reference_iid);
          (f2.Standard_flows.f2_stimuli, stimuli_iid) ]
  in
  let _ = Engine.execute ctx f2.Standard_flows.f2_graph ~bindings:b2 in
  ignore
    (Views.derive_views ctx ~logic:reference_iid
       ~placer_tool:(Workspace.tool w E.placer)
       ~expander_tool:(Workspace.tool w E.transistor_expander));
  (* a catalog flow *)
  ignore (Session.start_goal_based session E.performance);
  let perf_root = List.hd (Task_graph.roots (Session.current_flow session)) in
  ignore (Session.expand session perf_root);
  Session.save_flow session "simulate";
  (w, run, f)

let reload session =
  Persist.load Standard_schemas.odyssey (Persist.save session)

let suite_cases =
  [
    t "round trip preserves counts and hashes" (fun () ->
        let w, _, _ = rich_session () in
        let s2 = reload (Workspace.session w) in
        let ctx1 = Workspace.ctx w and ctx2 = Session.context s2 in
        let v1 = Engine.pin ctx1 and v2 = Engine.pin ctx2 in
        let st1 = v1.Engine.v_store and st2 = v2.Engine.v_store in
        check Alcotest.int "instances"
          (Store.Snapshot.instance_count st1)
          (Store.Snapshot.instance_count st2);
        check Alcotest.int "payloads"
          (Store.Snapshot.physical_count st1)
          (Store.Snapshot.physical_count st2);
        check Alcotest.int "records"
          (History.Snapshot.size v1.Engine.v_history)
          (History.Snapshot.size v2.Engine.v_history);
        check Alcotest.int "clock" ctx1.Engine.clock ctx2.Engine.clock;
        List.iter
          (fun iid ->
            check Alcotest.string
              (Printf.sprintf "hash of #%d" iid)
              (Store.Snapshot.hash_of st1 iid)
              (Store.Snapshot.hash_of st2 iid);
            check Alcotest.string
              (Printf.sprintf "entity of #%d" iid)
              (Store.Snapshot.entity_of st1 iid)
              (Store.Snapshot.entity_of st2 iid))
          (Store.Snapshot.all_instances st1));
    t "history chains survive" (fun () ->
        let w, run, f = rich_session () in
        let perf = Engine.result_of run f.Standard_flows.f5_performance in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        let v2 = Engine.pin ctx2 in
        let g, root, _ =
          History.Snapshot.trace v2.Engine.v_history v2.Engine.v_store
            ctx2.Engine.schema perf
        in
        check Alcotest.string "root entity" E.performance
          (Task_graph.entity_of g root);
        check Alcotest.bool "non-trivial trace" true (Task_graph.size g > 5));
    t "memoization works across a reload" (fun () ->
        let w, _, f = rich_session () in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        (* re-bind the same flow against the reloaded instances *)
        let store2 = Store.snapshot ctx2.Engine.store in
        let first entity =
          List.hd (Store.Snapshot.instances_of_entity store2 entity)
        in
        let layout_iid = first E.edited_layout in
        let reference_iid = first E.edited_netlist in
        let stim_iid = first E.stimuli in
        let models = first E.device_models in
        let tool = first in
        let g = f.Standard_flows.f5_graph in
        let bindings =
          [ (f.Standard_flows.f5_layout, layout_iid);
            (f.Standard_flows.f5_stimuli, stim_iid);
            (f.Standard_flows.f5_reference, reference_iid);
            (f.Standard_flows.f5_device_models, models);
            (f.Standard_flows.f5_extractor, tool E.extractor) ]
        in
        let bindings =
          List.map
            (fun nid ->
              match List.assoc_opt nid bindings with
              | Some iid -> (nid, iid)
              | None -> (nid, tool (Task_graph.entity_of g nid)))
            (Task_graph.leaves g)
        in
        let run = Engine.execute ctx2 g ~bindings in
        check Alcotest.int "all memo hits" 0 run.Engine.stats.Engine.executed);
    t "the compiled simulator survives (recompiled from source)" (fun () ->
        let w, _, _ = rich_session () in
        let ctx1 = Workspace.ctx w in
        let sim1 =
          List.hd
            (Store.Snapshot.instances_of_entity
               (Store.snapshot ctx1.Engine.store)
               E.compiled_simulator)
        in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        match Engine.decode (Store.snapshot ctx2.Engine.store) sim1 with
        | Value.Tool (Value.Compiled_simulator c) ->
          check Alcotest.bool "has instructions" true
            (Eda.Sim_compiled.instruction_count c > 0)
        | _ -> Alcotest.fail "compiled simulator payload lost");
    t "the flow catalog survives" (fun () ->
        let w, _, _ = rich_session () in
        let s1 = Workspace.session w in
        let s2 = reload s1 in
        check (Alcotest.list Alcotest.string) "names"
          (Session.flow_catalog s1) (Session.flow_catalog s2);
        match (Session.catalog_flow s1 "simulate", Session.catalog_flow s2 "simulate") with
        | Some a, Some b ->
          check Alcotest.bool "isomorphic" true (Canonical.equal a b)
        | _ -> Alcotest.fail "catalog flow lost");
    t "save is deterministic" (fun () ->
        let w, _, _ = rich_session () in
        let s = Workspace.session w in
        check Alcotest.string "same bytes" (Persist.save s) (Persist.save s));
    t "a cemented checkpoint is byte-deterministic and a save/load fixpoint"
      (fun () ->
        let w, _, _ = rich_session () in
        let cemented iid = Some (2 * iid) in
        let text = Persist.save ~cemented (Workspace.session w) in
        check Alcotest.string "same bytes" text
          (Persist.save ~cemented (Workspace.session w));
        let s2 = Persist.load ~cemented Standard_schemas.odyssey text in
        check Alcotest.string "fixpoint" text (Persist.save ~cemented s2);
        let store = Store.snapshot (Session.context s2).Engine.store in
        check Alcotest.bool "every payload left cold" false
          (List.exists
             (Store.Snapshot.payload_resident store)
             (Store.Snapshot.all_instances store)));
    t "a second save/load cycle is a fixpoint" (fun () ->
        let w, _, _ = rich_session () in
        let text1 = Persist.save (Workspace.session w) in
        let text2 = Persist.save (reload (Workspace.session w)) in
        check Alcotest.string "fixpoint" text1 text2);
    Util.expect_exn "corrupt file rejected"
      (function Persist.Persist_error _ -> true | _ -> false)
      (fun () -> Persist.load Standard_schemas.odyssey "(not_a_workspace)");
    Util.expect_exn "tampered payload rejected by hash check"
      (function Persist.Persist_error _ -> true | _ -> false)
      (fun () ->
        let w = Workspace.create () in
        ignore (Workspace.install_netlist w (Eda.Circuits.inverter ()));
        let text = Persist.save (Workspace.session w) in
        (* tamper: flip the gate operator in the serialized payload *)
        let tampered = Util.replace_first text "(g_inv not" "(g_inv buf" in
        if tampered = text then Alcotest.fail "tampering failed to apply";
        Persist.load Standard_schemas.odyssey tampered);
  ]

(* Trees of atoms drawn from plain letters and every character the
   printer must quote or escape. *)
let gen_sexp =
  let module S = Ddf_persist.Sexp in
  let open QCheck2.Gen in
  let atom =
    map (fun s -> S.Atom s)
      (string_size (int_range 0 6)
         ~gen:
           (oneofl
              [ 'a'; 'Z'; '7'; '-'; ' '; '\t'; '\n'; '('; ')'; '"'; ';'; '\\' ]))
  in
  sized @@ fix (fun self n ->
      if n <= 1 then atom
      else
        frequency
          [ (1, atom);
            ( 2,
              map (fun l -> S.List l) (list_size (int_range 0 4) (self (n / 3)))
            ) ])

let sexp_cases =
  let module S = Ddf_persist.Sexp in
  [
    t "sexp round-trips tricky atoms" (fun () ->
        let cases =
          [ "plain"; "with space"; "quo\"te"; "back\\slash"; "new\nline";
            "tab\there"; "(parens)"; "" ]
        in
        List.iter
          (fun s ->
            let sexp = S.List [ S.Atom "k"; S.Atom s ] in
            check Alcotest.bool s true
              (S.of_string (S.to_string sexp) = sexp))
          cases);
    Util.expect_exn "unterminated list"
      (function S.Sexp_error _ -> true | _ -> false)
      (fun () -> S.of_string "(a (b c)");
    Util.expect_exn "trailing garbage"
      (function S.Sexp_error _ -> true | _ -> false)
      (fun () -> S.of_string "(a) b");
    t "comments are skipped" (fun () ->
        check Alcotest.bool "parsed" true
          (S.of_string "(a ; comment\n b)" = S.List [ S.Atom "a"; S.Atom "b" ]));
    Util.qcheck ~count:300 "random trees round-trip, pretty and flat"
      ~print:(fun x -> S.to_string ~pretty:false x)
      gen_sexp
      (fun x ->
        S.of_string (S.to_string x) = x
        && S.of_string (S.to_string ~pretty:false x) = x);
    t "nesting is bounded with a typed error" (fun () ->
        let nested d = String.make d '(' ^ String.make d ')' in
        let rec depth = function
          | S.List [ x ] -> 1 + depth x
          | S.List _ | S.Atom _ | S.Text _ -> 1
        in
        check Alcotest.int "the bound itself parses" S.max_depth
          (depth (S.of_string (nested S.max_depth)));
        List.iter
          (fun d ->
            match S.of_string (nested d) with
            | _ -> Alcotest.failf "%d levels parsed" d
            | exception S.Sexp_error _ -> ())
          [ S.max_depth + 1; 100_000 ]);
    t "quoted atom errors are typed" (fun () ->
        List.iter
          (fun text ->
            match S.of_string text with
            | _ -> Alcotest.failf "%S parsed" text
            | exception S.Sexp_error _ -> ())
          [ "\"abc"; "(\"a\\"; "\"bad \\q escape\""; ")" ]);
  ]

(* The hostile-bytes property of the checkpoint decoder, over the
   rich session's checkpoint, self-contained and cemented, plus one
   sync conflict. *)
let checkpoints =
  lazy
    (let w, _, _ = rich_session () in
     let h = (Workspace.ctx w).Engine.history in
     let c = History.add_conflict h ~base:1 ~ours:2 ~theirs:3 ~origin:"peer" ~at:9 in
     ignore (History.resolve_conflict h c.History.cid ~winner:2);
     let s = Workspace.session w in
     (Persist.save s, Persist.save ~cemented:Option.some s))

type damage =
  | Truncate of int
  | Flip of int * int
  | Lying_length of int * int
      (* a varint this much past the end; [max_int]: the largest claim *)

let damage =
  QCheck2.Gen.(
    oneof
      [ map (fun k -> Truncate k) nat;
        map (fun (p, b) -> Flip (p, b)) (pair nat (int_range 0 7));
        map (fun (p, n) -> Lying_length (p, n))
          (pair nat (oneof [ int_range 1 64; int_range (1 lsl 40) (1 lsl 50); return max_int ])) ])

let apply_damage bytes = function
  | Truncate k -> String.sub bytes 0 (k mod String.length bytes)
  | Flip (p, bit) ->
    let b = Bytes.of_string bytes in
    let p = p mod Bytes.length b in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
    Bytes.to_string b
  | Lying_length (p, extra) ->
    (* an LEB128 length or count larger than every byte after it,
       written over any offset *)
    let p = p mod String.length bytes in
    let n = ref (if extra = max_int then max_int else String.length bytes - p + extra)
    and v = Buffer.create 9 in
    while !n lsr 7 <> 0 do
      Buffer.add_char v (Char.chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char v (Char.chr !n);
    let v = Buffer.contents v in
    let rest = p + String.length v in
    String.sub bytes 0 p ^ v
    ^ if rest < String.length bytes then String.sub bytes rest (String.length bytes - rest) else ""

let checkpoint_cases =
  [ Util.qcheck ~count:300 "damaged checkpoints raise only the typed errors"
      QCheck2.Gen.(pair bool damage)
      (fun (cemented, d) ->
        let inline, cold = Lazy.force checkpoints in
        let bytes = apply_damage (if cemented then cold else inline) d in
        let cemented = if cemented then Some Option.some else None in
        match Persist.load ?cemented Standard_schemas.odyssey bytes with
        (* a flipped or overwritten byte inside a string can still load;
           a truncated checkpoint never can *)
        | _ -> ( match d with Truncate _ -> false | Flip _ | Lying_length _ -> true)
        | exception Persist.Persist_error _ -> true
        (* a row that still decodes but that the history refuses (a
           record breaking the schema's rules, a conflict's foreign
           winner) is the history's typed error; a truncation never
           gets that far *)
        | exception Error.Ddf_error _ -> (
          match d with Truncate _ -> false | Flip _ | Lying_length _ -> true));
    Util.qcheck ~count:200 "every int survives the varint layout"
      QCheck2.Gen.(oneof [ int; oneofl [ 0; 127; 128; -1; min_int; max_int ] ])
      (fun n ->
        let w = Workspace.create () in
        let value = Value.Blob { blob_kind = "text"; text = "v" } in
        let iid =
          Engine.put (Workspace.ctx w) ~entity:E.stimuli
            ~meta:(Store.meta ~keywords:[ "k" ] ~created_at:n ()) value
        in
        let s2 = Persist.load Standard_schemas.odyssey (Persist.save (Workspace.session w)) in
        let store = Store.snapshot (Session.context s2).Engine.store in
        (Store.Snapshot.meta_of store iid).Store.created_at = n);
    t "a length beyond the bytes left is refused before it is allocated"
      (fun () ->
        let inline, _ = Lazy.force checkpoints in
        (* the user's length, right after the magic and the format *)
        let bytes = apply_damage inline (Lying_length (5, max_int)) in
        match Persist.load Standard_schemas.odyssey bytes with
        | _ -> Alcotest.fail "loaded"
        | exception Persist.Persist_error m ->
          check Alcotest.bool "truncation reported" true (Util.contains m "truncated"));
    t "an s-expression checkpoint is refused by name" (fun () ->
        (* format 3 is a format-4 save with its format varint, right
           after the magic, set back: the header without the seq *)
        let inline, _ = Lazy.force checkpoints in
        let format3 = String.mapi (fun i c -> if i = 4 then '\003' else c) inline in
        List.iter
          (fun (named, text) ->
            match Persist.load Standard_schemas.odyssey text with
            | _ -> Alcotest.fail "loaded"
            | exception Error.Ddf_error e ->
              check Alcotest.bool "typed `Invalid" true (e.Error.code = `Invalid);
              check Alcotest.bool "names its format" true
                (Util.contains e.Error.message named))
          [ ( "checkpoint format 2 (s-expression)",
              "(ddf_workspace\n (version 2)\n (user u)\n (clock 0))\n" );
            ( "checkpoint format 1 (s-expression)",
              "(ddf_workspace\n (version 1)\n (user u)\n (clock 0))\n" );
            ("checkpoint format 3 ", format3) ]) ]

let suite =
  [ ("persist.workspace", suite_cases); ("persist.checkpoint", checkpoint_cases);
    ("persist.sexp", sexp_cases) ]
