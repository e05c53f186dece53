(* Cross-cutting property tests: algebraic laws the subsystems must
   satisfy, checked over random inputs. *)

open Ddf

let netlist_gen =
  QCheck2.Gen.map
    (fun (seed, (n_inputs, n_gates)) ->
      Eda.Circuits.random ~n_inputs ~n_gates (Eda.Rng.create seed))
    QCheck2.Gen.(pair (int_bound 1_000_000) (pair (int_range 2 5) (int_range 1 30)))

(* ------------------------------------------------------------------ *)
(* History laws over random edit histories                             *)
(* ------------------------------------------------------------------ *)

let edit_tree seed depth =
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let rng = Eda.Rng.create seed in
  let v0 =
    Workspace.install_netlist w
      (Eda.Circuits.random ~n_inputs:3 ~n_gates:6 (Eda.Rng.create (seed + 1)))
  in
  let versions = ref [ v0 ] in
  for i = 1 to depth do
    let base = Eda.Rng.pick rng !versions in
    let session =
      Workspace.install_editor_session w
        (Eda.Edit_script.create
           ~name:(Printf.sprintf "e%d" i)
           [ Eda.Edit_script.Rename (Printf.sprintf "v%d" i) ])
    in
    let g, out = Task_graph.create (Workspace.schema w) Standard_schemas.E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
    let run = Engine.execute ctx g ~bindings:[ (editor, session); (src, base) ] in
    versions := Engine.result_of run out :: !versions
  done;
  (w, ctx, v0, !versions)

let history_gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 12))

let history_laws =
  [
    Util.qcheck ~count:30 "backward/forward duality" history_gen
      (fun (seed, depth) ->
        let w, _, v0, versions = edit_tree seed depth in
        let h = Workspace.history w in
        (* every instance derived from v0 must have v0 among its
           ancestors, and vice versa *)
        List.for_all
          (fun v ->
            v = v0
            || (List.mem v (History.derived_instances h v0)
               && List.mem v0 (History.ancestor_instances h v)))
          versions);
    Util.qcheck ~count:30 "version tree spans every version" history_gen
      (fun (seed, depth) ->
        let w, _, v0, versions = edit_tree seed depth in
        let h = Workspace.history w and st = Workspace.store w in
        let schema = Workspace.schema w in
        let tree_members = History.versions h st schema v0 in
        List.for_all (fun v -> List.mem v tree_members) versions
        && List.length tree_members = List.length versions);
    Util.qcheck ~count:30 "version parents are older" history_gen
      (fun (seed, depth) ->
        let w, _, _, versions = edit_tree seed depth in
        let h = Workspace.history w and st = Workspace.store w in
        List.for_all
          (fun v ->
            match History.version_parent h v with
            | None -> true
            | Some p ->
              (Store.meta_of st p).Store.created_at
              <= (Store.meta_of st v).Store.created_at)
          versions);
    Util.qcheck ~count:20 "traces of every version validate" history_gen
      (fun (seed, depth) ->
        let w, _, _, versions = edit_tree seed depth in
        let h = Workspace.history w and st = Workspace.store w in
        let schema = Workspace.schema w in
        List.for_all
          (fun v ->
            let g, root, binding = History.trace h st schema v in
            Task_graph.validate g;
            List.assoc root binding = v)
          versions);
  ]

(* ------------------------------------------------------------------ *)
(* Memo lookups over histories with a widely shared instance           *)
(* ------------------------------------------------------------------ *)

(* A random history over one device model that every circuit shares
   and tools that many records share: circuit compositions (no tool),
   tool-only edits, extractions co-producing two outputs, batch merges
   recorded as [partN] parts (repeats allowed, as a selection allows),
   and reruns of an earlier derivation with fresh outputs, as a
   [~memo:false] run records them.  Returns the history and every
   derivation key (tool, inputs, output entities) recorded. *)
let memo_history seed n =
  let module E = Standard_schemas.E in
  let schema = Standard_schemas.odyssey in
  let store = Store.create () and h = History.create () in
  let rng = Eda.Rng.create seed in
  let clock = ref 0 in
  let put entity =
    incr clock;
    Store.put store ~entity
      ~hash:(Printf.sprintf "h%d" !clock)
      ~meta:(Store.meta ~created_at:!clock ())
      ()
  in
  let model = put E.device_models in
  let editor = put E.netlist_editor and extractor = put E.extractor in
  let netlists = ref [ put E.netlist ] and layouts = ref [ put E.layout ] in
  let stimuli = ref [ put E.stimuli ] in
  let pick l = Eda.Rng.pick rng !l in
  let keys = ref [] in
  let add ~tool ~inputs out_entities =
    let outputs = List.map (fun e -> (e, put e)) out_entities in
    ignore
      (History.add h store schema ~task_entity:(List.hd out_entities) ~tool
         ~inputs ~outputs ~at:!clock);
    keys := (tool, inputs, out_entities) :: !keys;
    outputs
  in
  for _ = 1 to n do
    match Eda.Rng.int rng 7 with
    | 0 -> netlists := put E.netlist :: !netlists
    | 1 -> layouts := put E.layout :: !layouts
    | 2 ->
      let inputs = [ ("device_models", model); ("netlist", pick netlists) ] in
      let inputs = if Eda.Rng.int rng 2 = 0 then inputs else List.rev inputs in
      ignore (add ~tool:None ~inputs [ E.circuit ])
    | 3 ->
      List.iter
        (fun (_, iid) -> netlists := iid :: !netlists)
        (add ~tool:(Some editor) ~inputs:[] [ E.edited_netlist ])
    | 4 ->
      ignore
        (add ~tool:(Some extractor) ~inputs:[ ("layout", pick layouts) ]
           [ E.extracted_netlist; E.extraction_statistics ])
    | 5 ->
      let parts =
        List.init (2 + Eda.Rng.int rng 3) (fun i ->
            (Printf.sprintf "part%d" i, pick stimuli))
      in
      List.iter
        (fun (_, iid) -> stimuli := iid :: !stimuli)
        (add ~tool:None ~inputs:parts [ E.stimuli ])
    | _ -> (
      match !keys with
      | [] -> ()
      | ks ->
        let tool, inputs, out_entities = Eda.Rng.pick rng ks in
        ignore (add ~tool ~inputs out_entities))
  done;
  (h, model, !keys)

(* The lookup by definition: the oldest of every record. *)
let reference_lookup h ~tool ~inputs ~out_entities =
  let inputs = List.sort compare inputs in
  List.find_opt
    (fun (r : History.record) ->
      r.History.tool = tool
      && List.sort compare r.History.inputs = inputs
      && List.for_all (fun e -> List.mem_assoc e r.History.outputs) out_entities)
    (History.records h)

let memo_props =
  [
    Util.qcheck ~count:40 "the memo lookup answers what a scan of every record does"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 120))
      (fun (seed, n) ->
        let h, model, keys = memo_history seed n in
        let snap = History.snapshot h in
        let rid = Option.map (fun (r : History.record) -> r.History.rid) in
        let agree ~tool ~inputs ~out_entities =
          rid (History.Snapshot.find_derivation snap ~tool ~inputs ~out_entities)
          = rid (reference_lookup h ~tool ~inputs ~out_entities)
        in
        let circuit = Standard_schemas.E.circuit in
        List.for_all
          (fun (tool, inputs, out_entities) ->
            (* the key itself, its inputs in another order, one of its
               outputs alone, an entity it does not produce, and the
               key with an input or the tool dropped *)
            agree ~tool ~inputs ~out_entities
            && agree ~tool ~inputs:(List.rev inputs) ~out_entities
            && agree ~tool ~inputs ~out_entities:[ List.hd out_entities ]
            && agree ~tool ~inputs ~out_entities:[ circuit ]
            && agree ~tool ~inputs:(List.tl (inputs @ [ ("x", model) ]))
                 ~out_entities
            && agree ~tool:None ~inputs ~out_entities
            && agree ~tool ~inputs:[] ~out_entities)
          keys);
  ]

(* ------------------------------------------------------------------ *)
(* LVS under mutation: no false positives                              *)
(* ------------------------------------------------------------------ *)

let lvs_mutation =
  [
    Util.qcheck ~count:40 "a mutated netlist never passes LVS" netlist_gen
      (fun nl ->
        let rng = Eda.Rng.create (Hashtbl.hash (Eda.Netlist.hash nl)) in
        let gates = nl.Eda.Netlist.gates in
        match gates with
        | [] -> true
        | _ ->
          let victim = Eda.Rng.pick rng gates in
          (* flip the operator to a different one of the same arity *)
          let arity = List.length victim.Eda.Netlist.inputs in
          let candidates =
            List.filter
              (fun op ->
                op <> victim.Eda.Netlist.op && Eda.Logic.arity_ok op arity)
              Eda.Logic.all_ops
          in
          let mutated_op = Eda.Rng.pick rng candidates in
          let mutated =
            { nl with
              Eda.Netlist.gates =
                List.map
                  (fun (g : Eda.Netlist.gate) ->
                    if g.Eda.Netlist.gname = victim.Eda.Netlist.gname then
                      { g with Eda.Netlist.op = mutated_op }
                    else g)
                  gates }
          in
          not (Eda.Lvs.compare_netlists nl mutated).Eda.Lvs.equivalent);
    Util.qcheck ~count:40 "LVS is reflexive on random netlists" netlist_gen
      (fun nl -> (Eda.Lvs.compare_netlists nl nl).Eda.Lvs.equivalent);
    Util.qcheck ~count:30 "LVS is symmetric through extraction" netlist_gen
      (fun nl ->
        let extracted, _ = Eda.Extract.run (Eda.Layout.place nl) in
        (Eda.Lvs.compare_netlists nl extracted).Eda.Lvs.equivalent
        = (Eda.Lvs.compare_netlists extracted nl).Eda.Lvs.equivalent);
  ]

(* ------------------------------------------------------------------ *)
(* Freedom counting vs brute force                                     *)
(* ------------------------------------------------------------------ *)

(* Enumerate legal orderings explicitly over the invocation DAG. *)
let brute_force_orderings g =
  let invocations = Array.of_list (Task_graph.invocations g) in
  let n = Array.length invocations in
  let producer = Hashtbl.create 16 in
  Array.iteri
    (fun i (inv : Task_graph.invocation) ->
      List.iter (fun o -> Hashtbl.replace producer o i) inv.Task_graph.outputs)
    invocations;
  let deps i =
    let inv = invocations.(i) in
    ((match inv.Task_graph.tool with Some t -> [ t ] | None -> [])
    @ List.map snd inv.Task_graph.inputs)
    |> List.filter_map (Hashtbl.find_opt producer)
  in
  let rec count scheduled =
    if List.length scheduled = n then 1
    else
      List.fold_left
        (fun acc i ->
          if
            (not (List.mem i scheduled))
            && List.for_all (fun d -> List.mem d scheduled) (deps i)
          then acc + count (i :: scheduled)
          else acc)
        0
        (List.init n Fun.id)
  in
  count []

let freedom_checks =
  let flow_gen =
    QCheck2.Gen.map
      (fun (seed, steps) -> Flow_gen.random_flow seed steps)
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 10))
  in
  [
    Util.qcheck ~count:25 "linear-extension count matches brute force"
      flow_gen
      (fun g ->
        List.length (Task_graph.invocations g) > 6
        || Baselines.Freedom.legal_orderings g = brute_force_orderings g);
  ]

(* ------------------------------------------------------------------ *)
(* BLIF round trips on random circuits                                 *)
(* ------------------------------------------------------------------ *)

let blif_props =
  [
    Util.qcheck ~count:40 "BLIF round-trips random circuits" netlist_gen
      (fun nl ->
        let nl2 = Eda.Blif.of_string (Eda.Blif.to_string nl) in
        (Eda.Lvs.compare_netlists nl nl2).Eda.Lvs.equivalent);
    Util.qcheck ~count:40 "value codecs round-trip random netlists" netlist_gen
      (fun nl ->
        let v = Value.Netlist nl in
        let v2 =
          Ddf_persist.Codec.value_of_sexp (Ddf_persist.Codec.value_to_sexp v)
        in
        Value.hash v = Value.hash v2);
  ]

(* ------------------------------------------------------------------ *)
(* Typed errors survive the wire                                       *)
(* ------------------------------------------------------------------ *)

(* The whole taxonomy — code, message, context pairs, retryability and
   the backoff hint — must round-trip through an error frame exactly:
   a client's retry decision is only as good as what the frame
   preserves. *)
let error_gen =
  let open QCheck2.Gen in
  let text = string_size ~gen:printable (int_range 0 30) in
  map
    (fun (code, (msg, (ctx, (retryable, after)))) ->
      Error.make ~context:ctx ~retryable
        ?retry_after:
          (Option.map (fun n -> float_of_int n /. 1024.0) after)
        code msg)
    (pair (oneofl Error.all_codes)
       (pair text
          (pair
             (small_list (pair text text))
             (pair bool (option (int_range 0 100_000))))))

let wire_error_props =
  [
    Util.qcheck ~count:200 "error frames round-trip the taxonomy" error_gen
      (fun e ->
        match
          Wire.response_of_binary_string
            (Wire.response_to_binary_string (Wire.Error e))
        with
        | Wire.Error e' -> e = e'
        | _ -> false);
    Util.qcheck ~count:50 "codes round-trip their names"
      QCheck2.Gen.(oneofl Error.all_codes)
      (fun c -> Error.code_of_string (Error.code_to_string c) = Some c);
  ]

(* ------------------------------------------------------------------ *)
(* Journal replay is the identity on generated contexts               *)
(* ------------------------------------------------------------------ *)

let journal_props =
  let gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 6)) in
  let journal_pair_gen =
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 8))
  in
  (* The replication loop as the follower driver runs it — pull the
     tail, apply frames, resync from a snapshot when compaction has
     discarded the needed suffix — converges to the primary's exact
     durable state under random interleavings of writes, primary
     compactions and catch-up rounds.  With [compact_every], both sides
     also seal whenever a seal is due. *)
  let replica_converges ?compact_every (seed, steps) =
    Test_journal.with_dir @@ fun root ->
    Unix.mkdir root 0o755;
    let pdir = Filename.concat root "p"
    and fdir = Filename.concat root "f" in
    let p = Journal.open_ ?compact_every ~dir:pdir Standard_schemas.odyssey in
    let f = Journal.open_ ?compact_every ~dir:fdir Standard_schemas.odyssey in
    (* a seal when one is due, as the server's writer checks after
       each job *)
    let seal j =
      if compact_every <> None then ignore (Journal.maybe_compact j)
    in
    let rec sync () =
      match Journal.entries_since p (Journal.seq f) with
      | Journal.Snapshot_needed ->
        let seq, data = Journal.snapshot_state p in
        Test_journal.reset_to_snapshot f ~seq data;
        sync ()
      | Journal.Frames [] -> ()
      | Journal.Frames frames ->
        List.iter
          (fun (seq, payload) ->
            Journal.apply f ~seq payload;
            seal f)
          frames;
        sync ()
    in
    let rng = Eda.Rng.create seed in
    List.iter
      (fun i ->
        ignore
          (Test_journal.activity ~seed:(seed + i) (Journal.context p) 1);
        seal p;
        match Eda.Rng.int rng 3 with
        | 0 -> Journal.compact p
        | 1 -> sync ()
        | _ -> ())
      (List.init steps (fun i -> i));
    sync ();
    let want = Test_journal.state (Journal.context p) in
    let got = Test_journal.state (Journal.context f) in
    Journal.close p;
    Journal.close f;
    (* and the follower's own journal replays to the same state *)
    let f2 = Journal.open_ ~dir:fdir Standard_schemas.odyssey in
    let replayed = Test_journal.state (Journal.context f2) in
    Journal.close f2;
    want = got && want = replayed
  in
  [
    Util.qcheck ~count:12 "journal round-trips generated contexts" gen
      (fun (seed, depth) ->
        Test_journal.with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ~seed ctx depth);
        Store.annotate ctx.Engine.store
          (1 + (seed mod Store.instance_count ctx.Engine.store))
          ~label:(Printf.sprintf "a%d" seed)
          ~keywords:[ "generated" ] ();
        let before = Test_journal.state ctx in
        Journal.close j;
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        let after = Test_journal.state (Journal.context j2) in
        Journal.close j2;
        before = after);
    Util.qcheck ~count:10 "replica_converges" journal_pair_gen
      replica_converges;
    Util.qcheck ~count:10 "replica_converges with a seal every 3 entries"
      journal_pair_gen
      (replica_converges ~compact_every:3);
    (* Group commit's contract: every write acknowledged by [sync]
       survives a crash that loses any suffix of the wal written after
       the durability point, and cutting exactly at the point replays
       to exactly the acked state. *)
    Util.qcheck ~count:10 "group_commit_replay_equiv" journal_pair_gen
      (fun (seed, steps) ->
        Test_journal.with_dir @@ fun dir ->
        let wal = Filename.concat dir "wal.ddf" in
        let j =
          Journal.open_ ~sync_mode:Journal.Group ~dir Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        let rng = Eda.Rng.create seed in
        ignore (Test_journal.activity ~seed ctx (1 + (steps mod 4)));
        Journal.sync j;
        let acked_state = Test_journal.state ctx in
        let acked_tick = Store.tick ctx.Engine.store in
        let acked =
          List.map
            (fun iid ->
              ( iid,
                Store.entity_of ctx.Engine.store iid,
                Store.hash_of ctx.Engine.store iid ))
            (Store.all_instances ctx.Engine.store)
        in
        let synced = (Unix.stat wal).Unix.st_size in
        (* unacked tail, then "crash": lose a random suffix of the wal
           at or after the last durability point *)
        ignore (Test_journal.activity ~seed:(seed + 1) ctx (1 + (steps mod 3)));
        Journal.close j;
        let full = (Unix.stat wal).Unix.st_size in
        Unix.truncate wal (synced + Eda.Rng.int rng (full - synced + 1));
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx2 = Journal.context j2 in
        let prefix_ok =
          Store.tick ctx2.Engine.store >= acked_tick
          && List.for_all
               (fun (iid, e, h) ->
                 Store.mem ctx2.Engine.store iid
                 && Store.entity_of ctx2.Engine.store iid = e
                 && Store.hash_of ctx2.Engine.store iid = h)
               acked
        in
        Journal.close j2;
        Unix.truncate wal synced;
        let j3 = Journal.open_ ~dir Standard_schemas.odyssey in
        let exact = Test_journal.state (Journal.context j3) = acked_state in
        Journal.close j3;
        prefix_ok && exact);
  ]

(* ------------------------------------------------------------------ *)
(* The memoized subtype closure agrees with the bare parent walk       *)
(* ------------------------------------------------------------------ *)

let schema_index_props =
  (* a random parent forest: entity ei (i > 0) may pick any earlier
     entity as its parent, so chains, bushes and isolated roots all
     occur *)
  let forest_gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 14)) in
  let build seed n =
    let rng = Eda.Rng.create seed in
    let id i = Printf.sprintf "e%d" i in
    let ents =
      List.init n (fun i ->
          if i = 0 || Eda.Rng.int rng 3 = 0 then Schema.entity (id i) []
          else Schema.entity ~parent:(id (Eda.Rng.int rng i)) (id i) [])
    in
    (Schema.create "forest" ents, List.init n id)
  in
  (* the unindexed reference: walk parent links, no closure tables *)
  let rec plain s ~sub ~super =
    sub = super
    ||
    match Schema.parent_of s sub with
    | None -> false
    | Some p -> plain s ~sub:p ~super
  in
  let agree s ids =
    List.for_all
      (fun sub ->
        List.for_all
          (fun super ->
            Schema.is_subtype s ~sub ~super = plain s ~sub ~super)
          ids)
      ids
  in
  [
    Util.qcheck ~count:60 "is_subtype agrees with the parent walk" forest_gen
      (fun (seed, n) ->
        let s, ids = build seed n in
        agree s ids);
    Util.qcheck ~count:40 "closure survives schema extension" forest_gen
      (fun (seed, n) ->
        let s, ids = build seed n in
        (* query first so the closure tables exist, then extend: the
           extended schema must answer from fresh tables, not the old
           cache *)
        let _ = agree s ids in
        let parent = Printf.sprintf "e%d" (seed mod n) in
        let s' = Schema.add_entity s (Schema.entity ~parent "fresh" []) in
        agree s' ("fresh" :: ids)
        && Schema.is_subtype s' ~sub:"fresh" ~super:parent
        && agree s ids);
  ]

let suite =
  [
    ("properties.history", history_laws);
    ("properties.memo", memo_props);
    ("properties.lvs", lvs_mutation);
    ("properties.freedom", freedom_checks);
    ("properties.blif", blif_props);
    ("properties.wire_errors", wire_error_props);
    ("properties.journal", journal_props);
    ("properties.schema_index", schema_index_props);
  ]
