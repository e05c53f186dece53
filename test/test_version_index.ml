(* The version index in the history state against the tree walk it
   replaced.  The oracle below re-derives every version edge from the
   records and walks the tree from its origin on each query, exactly as
   [History] answered before the index moved into the state.  Random
   edit histories (ties in creation time included, and versions older
   than their parents) are checked live, through snapshots pinned
   mid-history, after a reopen from checkpoint plus wal, and after a
   sync merges sibling branches from two workspaces. *)

open Ddf
module E = Standard_schemas.E
module Int_map = Map.Make (Int)

let schema = Standard_schemas.odyssey

(* ------------------------------------------------------------------ *)
(* The oracle: edges from every record, a tree walk per query          *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  type edges = {
    parent : Store.iid Int_map.t;
    children : Store.iid list Int_map.t;
  }

  let record_parent store (r : History.record) out =
    let root iid = Schema.root_of schema (Store.Snapshot.entity_of store iid) in
    List.find_opt (fun (_, input) -> root input = root out) r.inputs
    |> Option.map snd

  let edges hist store =
    List.fold_left
      (fun e (r : History.record) ->
        List.fold_left
          (fun e (_, out) ->
            match record_parent store r out with
            | None -> e
            | Some p ->
              let l = Option.value (Int_map.find_opt p e.children) ~default:[] in
              { parent = Int_map.add out p e.parent;
                children = Int_map.add p (out :: l) e.children })
          e r.outputs)
      { parent = Int_map.empty; children = Int_map.empty }
      (History.Snapshot.records hist)

  let version_parent e iid = Int_map.find_opt iid e.parent

  let version_children e iid =
    List.sort_uniq compare
      (Option.value (Int_map.find_opt iid e.children) ~default:[])

  let versions e iid =
    let rec origin iid =
      match Int_map.find_opt iid e.parent with Some p -> origin p | None -> iid
    in
    let rec walk acc iid =
      List.fold_left walk (iid :: acc) (version_children e iid)
    in
    List.sort_uniq compare (walk [] (origin iid))

  let created store v = (Store.Snapshot.meta_of store v).Store.created_at

  let latest_version store e iid =
    List.fold_left
      (fun best v ->
        if (created store v, v) > (created store best, best) then v else best)
      iid (versions e iid)

  let out_of_date hist store e iid =
    match History.Snapshot.derivation_of hist iid with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (role, input) ->
          match
            List.filter
              (fun v -> v <> input && created store v > r.History.at)
              (versions e input)
          with
          | [] -> None
          | newer -> Some (role, input, newer))
        r.History.inputs
end

type answers = {
  a_parent : Store.iid option;
  a_children : Store.iid list;
  a_versions : Store.iid list;
  a_latest : Store.iid;
  a_stale : (string * Store.iid * Store.iid list) list;
}

let index_answers hist iid =
  let module S = History.Snapshot in
  { a_parent = S.version_parent hist iid;
    a_children = S.version_children hist iid;
    a_versions = S.versions hist iid;
    a_latest = S.latest_version hist iid;
    a_stale = S.out_of_date hist iid }

let oracle_answers hist store iid =
  let e = Oracle.edges hist store in
  { a_parent = Oracle.version_parent e iid;
    a_children = Oracle.version_children e iid;
    a_versions = Oracle.versions e iid;
    a_latest = Oracle.latest_version store e iid;
    a_stale = Oracle.out_of_date hist store e iid }

(* Every instance of a pinned view answers as the oracle does over the
   same view; a mismatch names the instance. *)
let agrees (v : Engine.view) =
  List.for_all
    (fun iid ->
      index_answers v.Engine.v_history iid
      = oracle_answers v.Engine.v_history v.Engine.v_store iid
      || QCheck2.Test.fail_reportf "instance %d disagrees with the oracle" iid)
    (Store.Snapshot.all_instances v.Engine.v_store)

let all_answers (v : Engine.view) =
  List.map (index_answers v.Engine.v_history)
    (Store.Snapshot.all_instances v.Engine.v_store)

(* ------------------------------------------------------------------ *)
(* Random edit histories                                               *)
(* ------------------------------------------------------------------ *)

(* Two version families (netlists, layouts) and two roots of their own,
   so some inputs share an output's root and some do not. *)
let entities =
  [| E.netlist; E.edited_netlist; E.extracted_netlist; E.optimized_netlist;
     E.layout; E.edited_layout; E.stimuli; E.device_models |]

(* One step: [Install] a source, [Derive] a record from picked inputs
   (several outputs when [extra] > 0), or [Pin] a view.  Creation
   times and record times come from a small range, so ties are common
   and a version can be older than its parent.  A [late] record
   produces an instance already installed, newer than its inputs and
   not yet produced: when later records already derived versions from
   it, its whole tree joins its parent's. *)
type op =
  | Install of { entity : int; created : int }
  | Derive of {
      entity : int;
      picks : int list;
      extra : int;
      late : bool;
      created : int;
      at : int;
    }
  | Pin

let gen_op =
  let open QCheck2.Gen in
  let small = int_range 0 7 in
  frequency
    [ (2, map2 (fun entity created -> Install { entity; created }) small small);
      ( 6,
        map3
          (fun (entity, extra, late) picks (created, at) ->
            Derive { entity; picks; extra; late; created; at })
          (triple small (int_range 0 1) (frequencyl [ (3, false); (1, true) ]))
          (list_size (int_range 1 3) nat)
          (pair small small) );
      (1, pure Pin) ]

let gen_ops = QCheck2.Gen.(list_size (int_range 1 60) gen_op)

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Install { entity; created } -> Printf.sprintf "I%d@%d" entity created
         | Derive { entity; picks; extra; late; created; at } ->
           Printf.sprintf "D%d(%s)+%d%s@%d/%d" entity
             (String.concat "," (List.map string_of_int picks))
             extra (if late then "L" else "") created at
         | Pin -> "pin")
       ops)

let put (ctx : Engine.context) entity created =
  let value =
    Value.Blob
      { blob_kind = "text";
        text = Printf.sprintf "%s %d" entity (Store.tick ctx.Engine.store) }
  in
  Engine.put ctx ~entity
    ~meta:(Store.meta ~user:ctx.Engine.user ~created_at:created ())
    value

(* The entities a [Derive] produces: constructed ones of both version
   families and of a root of their own, and a source (whose records the
   construction rules exempt, so they take any roles). *)
let derived =
  [| E.edited_netlist; E.extracted_netlist; E.optimized_netlist;
     E.edited_layout; E.device_models; E.stimuli |]

(* The inputs of a record producing [entity] that its construction rule
   admits: each picked instance fills the first free data role whose
   target it fits, or is dropped; a source takes the picks as roles
   [r0], [r1], ..., an abstract entity none. *)
let conforming_inputs (ctx : Engine.context) entity picked =
  match Schema.construction_rule schema entity with
  | Schema.Source -> List.mapi (fun i p -> (Printf.sprintf "r%d" i, p)) picked
  | Schema.Abstract _ -> []
  | Schema.Constructed deps ->
    let fits p (d : Schema.dep) =
      d.Schema.dep_kind <> Schema.Functional
      && Schema.is_subtype schema
           ~sub:(Store.entity_of ctx.Engine.store p) ~super:d.Schema.target
    in
    List.rev
      (List.fold_left
         (fun acc p ->
           match
             List.find_opt
               (fun (d : Schema.dep) ->
                 fits p d && not (List.mem_assoc d.Schema.role acc))
               deps
           with
           | Some d -> (d.Schema.role, p) :: acc
           | None -> acc)
         [] picked)

(* Apply [ops] to a context, returning the views pinned along the way.
   A pick is the newest instance with odds 1/2 (so chains grow deep),
   else any.  Every record conforms to the schema's construction rules:
   its outputs share one entity, whose rule admits its inputs. *)
let apply (ctx : Engine.context) ops =
  let pool () = Array.of_list (Store.all_instances ctx.Engine.store) in
  let pick p =
    let a = pool () in
    if p mod 2 = 0 then a.(Array.length a - 1) else a.(p / 2 mod Array.length a)
  in
  List.fold_left
    (fun pins op ->
      match op with
      | Pin -> Engine.pin ctx :: pins
      | Install { entity; created } ->
        ignore (put ctx entities.(entity) created);
        pins
      | Derive { entity; picks; extra; late; created; at } ->
        if Store.all_instances ctx.Engine.store = [] then
          ignore (put ctx entities.(entity) created)
        else begin
          let picked = List.map pick picks in
          let newest_input = List.fold_left max 0 picked in
          (* newer than every input, so no edit cycle can form *)
          let unproduced iid =
            iid > newest_input
            && History.derivation_of ctx.Engine.history iid = None
          in
          let first =
            match List.find_opt unproduced (Store.all_instances ctx.Engine.store) with
            | Some iid when late -> iid
            | Some _ | None ->
              put ctx derived.(entity mod Array.length derived) created
          in
          let out_entity = Store.entity_of ctx.Engine.store first in
          let outputs =
            (out_entity, first)
            :: List.init extra (fun _ -> (out_entity, put ctx out_entity created))
          in
          ignore
            (History.add ctx.Engine.history ctx.Engine.store ctx.Engine.schema
               ~task_entity:out_entity ~tool:None
               ~inputs:(conforming_inputs ctx out_entity picked) ~outputs ~at)
        end;
        pins)
    [] ops

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let live_and_pinned =
  Util.qcheck ~count:200 "live and pinned snapshots answer as the oracle"
    ~print:print_ops gen_ops (fun ops ->
      let ctx = Engine.create_context schema in
      let pins = apply ctx ops in
      List.for_all agrees (Engine.pin ctx :: pins))

let reopen =
  Util.qcheck ~count:25 "a reopen from checkpoint plus wal answers the same"
    ~print:(fun (a, b) -> print_ops a ^ " | " ^ print_ops b)
    QCheck2.Gen.(pair gen_ops gen_ops)
    (fun (before, after) ->
      Test_journal.with_dir @@ fun dir ->
      let j = Journal.open_ ~dir schema in
      ignore (apply (Journal.context j) before);
      Journal.compact j;
      ignore (apply (Journal.context j) after);
      let live = Engine.pin (Journal.context j) in
      Journal.close j;
      let j = Journal.open_ ~dir schema in
      Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
      let reopened = Engine.pin (Journal.context j) in
      agrees reopened && all_answers reopened = all_answers live)

(* Both peers derive versions from the same shared instances offline,
   then sync: each side's index holds the other's derivations as
   siblings, and still answers as the oracle. *)
let sync_siblings =
  Util.qcheck ~count:15 "sync sibling branches answer as the oracle"
    ~print:(fun (s, (a, b)) ->
      String.concat " | " [ print_ops s; print_ops a; print_ops b ])
    QCheck2.Gen.(pair gen_ops (pair gen_ops gen_ops))
    (fun (shared, (ours, theirs)) ->
      Test_sync.with_clone_pair
        ~prep:(fun ctx -> ignore (apply ctx shared))
        (fun ja jb ->
          ignore (apply (Journal.context ja) ours);
          ignore (apply (Journal.context jb) theirs);
          ignore (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
          agrees (Engine.pin (Journal.context ja))
          && agrees (Engine.pin (Journal.context jb))))

(* Installs become version roots the moment a record derives from
   them, and ties in creation time go to the higher iid. *)
let roots_and_ties () =
  let ctx = Engine.create_context schema in
  let v0 = put ctx E.netlist 5 in
  let derive ~created ~at parent =
    let v = put ctx E.edited_netlist created in
    ignore
      (History.add ctx.Engine.history ctx.Engine.store ctx.Engine.schema
         ~task_entity:E.edited_netlist ~tool:None ~inputs:[ ("netlist", parent) ]
         ~outputs:[ (E.edited_netlist, v) ] ~at);
    v
  in
  let h = ctx.Engine.history and st = ctx.Engine.store in
  Alcotest.(check int) "a lone install is its own latest" v0
    (History.latest_version h st schema v0);
  let v1 = derive ~created:5 ~at:5 v0 in
  let v2 = derive ~created:5 ~at:5 v0 in
  Alcotest.(check (option int)) "the install is the root" None
    (History.version_parent h v0);
  Alcotest.(check (list int)) "siblings, ascending" [ v1; v2 ]
    (History.version_children h v0);
  Alcotest.(check int) "a tie goes to the higher iid" v2
    (History.latest_version h st schema v1);
  let old = derive ~created:1 ~at:6 v2 in
  Alcotest.(check int) "an older edit is not the latest" v2
    (History.latest_version h st schema old);
  Alcotest.(check (list int)) "versions, ascending" [ v0; v1; v2; old ]
    (History.versions h st schema old);
  Alcotest.(check bool) "oracle" true (agrees (Engine.pin ctx))

let suite =
  [
    ( "history.version_index",
      [ Alcotest.test_case "install roots and creation-time ties" `Quick
          roots_and_ties;
        live_and_pinned; reopen; sync_siblings ] );
  ]
