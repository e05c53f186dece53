(* A loaded checkpoint against the session it was saved from.  Load
   builds the store's and the history's state in one batch each; every
   snapshot read of the loaded session must answer as the live one did:
   instances, browse under random filters, physical counts, versions,
   staleness, traces, uses and conflicts.  Random histories carry
   repeated values (dedup), repeated and changed keywords, annotations,
   edit chains, version trees that merge (a record producing an
   instance later records already derived versions from), and
   conflicts with resolutions.  The same reads are compared after a
   journal reopen whose checkpoint lags its seals, so the sealed tail's
   puts load in cold batches between records.  Damaged checkpoints,
   written row by row, raise the typed errors and messages of the
   checks load makes. *)

open Ddf
module E = Standard_schemas.E
module L = Ddf_wire.Layout
module V = Test_version_index

let schema = Standard_schemas.odyssey

(* ------------------------------------------------------------------ *)
(* Random histories                                                    *)
(* ------------------------------------------------------------------ *)

let keywords = [| "k0"; "k1"; "k2" |]

type op =
  | Shape of V.op
      (* installs and records, version chains and merging trees *)
  | Shared of { entity : int; text : int; kws : int list; created : int }
      (* a value of a small pool: most are dedup hits *)
  | Annotate of { pick : int; kws : int list option; comment : bool }
  | Conflict of { picks : int * int * int; winner : int option }

let gen_op =
  let open QCheck2.Gen in
  let kws = list_size (int_range 0 3) (int_range 0 (Array.length keywords - 1)) in
  frequency
    [ (6, map (fun op -> Shape op) V.gen_op);
      ( 3,
        map3
          (fun (entity, text) kws created -> Shared { entity; text; kws; created })
          (pair (int_range 0 7) (int_range 0 3))
          kws (int_range 0 7) );
      ( 2,
        map3
          (fun pick kws comment -> Annotate { pick; kws; comment })
          nat (opt kws) bool );
      ( 1,
        map2
          (fun picks winner -> Conflict { picks; winner })
          (triple nat nat nat) (opt (int_range 0 2)) ) ]

let gen_ops = QCheck2.Gen.(list_size (int_range 1 50) gen_op)

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Shape op -> V.print_ops [ op ]
         | Shared { entity; text; kws; created } ->
           Printf.sprintf "S%d:%d[%s]@%d" entity text
             (String.concat "," (List.map string_of_int kws)) created
         | Annotate { pick; kws; comment } ->
           Printf.sprintf "A%d%s%s" pick
             (match kws with
             | None -> ""
             | Some l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]")
             (if comment then "c" else "")
         | Conflict { picks = a, b, c; winner } ->
           Printf.sprintf "C%d,%d,%d%s" a b c
             (match winner with None -> "" | Some w -> "w" ^ string_of_int w))
       ops)

let apply (ctx : Engine.context) ops =
  let instances () = Store.Snapshot.instance_count (Store.snapshot ctx.Engine.store) in
  let pick p = 1 + (p mod instances ()) in
  List.iter
    (function
      | Shape op -> ignore (V.apply ctx [ op ])
      | Shared { entity; text; kws; created } ->
        ignore
          (Engine.put ctx ~entity:V.entities.(entity)
             ~meta:
               (Store.meta ~user:ctx.Engine.user
                  ~label:(Printf.sprintf "shared %d" text)
                  ~keywords:(List.map (Array.get keywords) kws) ~created_at:created ())
             (Value.Blob { blob_kind = "text"; text = Printf.sprintf "shared %d" text }))
      | Annotate { pick = p; kws; comment } when instances () > 0 ->
        Store.annotate ctx.Engine.store (pick p)
          ?keywords:(Option.map (List.map (Array.get keywords)) kws)
          ?comment:(if comment then Some "annotated" else None)
          ()
      | Conflict { picks = a, b, c; winner } when instances () > 0 ->
        let base = pick a and ours = pick b and theirs = pick c in
        let h = ctx.Engine.history in
        let conflict =
          History.add_conflict h ~base ~ours ~theirs ~origin:"peer" ~at:ctx.Engine.clock
        in
        Option.iter
          (fun w ->
            ignore
              (History.resolve_conflict h conflict.History.cid
                 ~winner:(List.nth [ base; ours; theirs ] w)))
          winner
      | Annotate _ | Conflict _ -> ())
    ops

(* ------------------------------------------------------------------ *)
(* Every read, as one comparable value                                 *)
(* ------------------------------------------------------------------ *)

let gen_filter =
  let open QCheck2.Gen in
  let entity = oneofa V.entities in
  let bound = opt (int_range 0 8) in
  map3
    (fun (f_entities, f_keywords) (f_user, f_text) (f_from, f_to) ->
      { Store.f_entities; f_user; f_from; f_to; f_keywords; f_text })
    (pair
       (opt (list_size (int_range 0 3) entity))
       (list_size (int_range 0 2) (oneofa keywords)))
    (pair (opt (oneofl [ "designer"; "nobody" ])) (opt (oneofl [ "shared"; "ANNOT"; "1" ])))
    (pair bound bound)

let filters = QCheck2.Gen.generate ~rand:(Random.State.make [| 45 |]) ~n:24 gen_filter

type reads = {
  instances : string Store.instance list;
  ticks : int * int;
  physical : int;
  browsed : Store.iid list list;
  records : History.record list;
  conflicts : History.conflict list;
  per_instance :
    (Store.iid option * Store.iid list * Store.iid list * Store.iid
    * (string * Store.iid * Store.iid list) list * string * Store.iid list
    * int option)
    list;
}

let reads (v : Engine.view) =
  let st = v.Engine.v_store and h = v.Engine.v_history in
  Store.Snapshot.check_keyword_index st;
  let module S = Store.Snapshot in
  let module H = History.Snapshot in
  let iids = S.all_instances st in
  { instances = List.map (S.find st) iids;
    ticks = (S.tick st, H.tick h);
    physical = S.physical_count st;
    browsed = List.map (S.browse st) (Store.any_filter :: filters);
    records = H.records h;
    conflicts = H.all_conflicts h;
    per_instance =
      List.map
        (fun iid ->
          ( H.version_parent h iid, H.version_children h iid, H.versions h iid,
            H.latest_version h iid, H.out_of_date h iid,
            H.trace_text h st schema iid, H.derived_instances h iid,
            Option.map (fun r -> r.History.rid) (H.derivation_of h iid) ))
        iids }

(* Reads never touch a payload, so a cold load compares too. *)
let reads_of_session s = reads (Engine.pin (Session.context s))

let load_equivalence =
  Util.qcheck ~count:150 "a loaded checkpoint reads as the session it was saved from"
    ~print:(fun (cold, ops) -> (if cold then "cemented: " else "inline: ") ^ print_ops ops)
    QCheck2.Gen.(pair bool gen_ops)
    (fun (cold, ops) ->
      let ctx = Engine.create_context schema in
      apply ctx ops;
      let session = Session.of_context ctx in
      let live = reads_of_session session in
      let loaded =
        if cold then
          Persist.load ~cemented:Option.some schema
            (Persist.save ~cemented:Option.some session)
        else Persist.load schema (Persist.save session)
      in
      reads_of_session loaded = live)

(* Seals every 8 entries; a checkpoint is written only at the doubling
   points, so the reopen replays sealed frames past it, its puts cold
   and in batches, records and notes between them. *)
let lagging_reopen =
  Util.qcheck ~count:25 "a reopen past a lagging checkpoint reads the same"
    ~print:print_ops gen_ops (fun ops ->
      Test_journal.with_dir @@ fun dir ->
      let j = Journal.open_ ~compact_every:8 ~dir schema in
      List.iter
        (fun op ->
          apply (Journal.context j) [ op ];
          ignore (Journal.maybe_compact j))
        ops;
      let live = reads (Engine.pin (Journal.context j)) in
      Journal.close j;
      let j = Journal.open_ ~dir schema in
      Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
      reads (Engine.pin (Journal.context j)) = live)

(* ------------------------------------------------------------------ *)
(* Damaged checkpoints, written row by row                             *)
(* ------------------------------------------------------------------ *)

(* The checkpoint's slot, as format 4 lays it out. *)
type slot = Cemented of int | Inline of string

let slot_u = L.union "checkpoint slot"
let cemented_case = L.case slot_u (Char.code 'c') "cemented" L.Int (fun s -> Cemented s)
let inline_case = L.case slot_u (Char.code 'v') "value" L.Str (fun t -> Inline t)

let slot =
  L.described slot_u (function
    | Cemented s -> L.V (cemented_case, s)
    | Inline t -> L.V (inline_case, t))

let ( ** ) = L.( ** )

let write_checkpoint ~instances ~records =
  let w = L.writer ~head:"DDFC" in
  L.write (L.Int ** L.Str ** L.Int ** L.Int ** L.Int) w (4, ("u", (9, (0, 1))));
  L.write_each (L.Int ** L.Str ** Wire.meta ** L.Str ** slot) w Fun.id instances;
  L.write_each Entry.record_parts w Fun.id records;
  L.write_each (L.Int ** L.Int ** L.Int ** L.Int ** L.Str ** L.Int ** L.Opt L.Int) w
    Fun.id [];
  L.write_each (L.Str ** L.Str) w Fun.id [];
  L.written w

let blob i = Value.Blob { blob_kind = "text"; text = Printf.sprintf "v%d" i }

(* Five instances: netlists 1, 3, 5 and editors 2, 4 between them; row
   [iid] is written under [iid'] when [renumber] says so, and its hash
   is another value's when [rehash] names it. *)
let instance_rows ?(renumber = Fun.id) ?(rehash = 0) ~cold () =
  List.map
    (fun iid ->
      let entity = if iid mod 2 = 0 then E.netlist_editor else E.edited_netlist in
      let value = blob iid in
      let hash = Value.hash (if iid = rehash then blob 99 else value) in
      ( renumber iid,
        ( entity,
          ( Store.meta ~created_at:iid (),
            (hash, if cold then Cemented iid else Inline (Codec.value_to_text value)) ) ) ))
    [ 1; 2; 3; 4; 5 ]

let edit rid ~tool ~input ~output =
  { Entry.rp_rid = rid; rp_task_entity = E.edited_netlist; rp_tool = Some tool;
    rp_inputs = [ ("netlist", input) ]; rp_outputs = [ (E.edited_netlist, output) ];
    rp_at = rid }

(* The chain 1 -> 3 -> 5, edited by 2 and by 4. *)
let chain = [ edit 1 ~tool:2 ~input:1 ~output:3; edit 2 ~tool:4 ~input:3 ~output:5 ]

type outcome = Loaded | Persist_error of string | Ddf_error of Error.code * string

let load ?cemented bytes =
  match Persist.load ?cemented schema bytes with
  | _ -> Loaded
  | exception Persist.Persist_error m -> Persist_error m
  | exception Error.Ddf_error e -> Ddf_error (e.Error.code, e.Error.message)

let show = function
  | Loaded -> "loaded"
  | Persist_error m -> "Persist_error: " ^ m
  | Ddf_error (code, m) -> Printf.sprintf "Ddf_error (%s): %s" (Error.code_to_string code) m

let damaged name ?cemented ?(records = chain) ~instances want =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name (show want)
        (show (load ?cemented (write_checkpoint ~instances ~records))))

let refused m = Ddf_error (`Invalid, "record 2 breaks the schema's rules: " ^ m)

let damaged_cases =
  [ damaged "the chain loads" ~instances:(instance_rows ~cold:false ()) Loaded;
    damaged "a non-dense iid"
      ~instances:(instance_rows ~renumber:(fun i -> if i >= 3 then i + 1 else i) ~cold:false ())
      (Persist_error "instance ids are not dense (4 loaded as 3)");
    damaged "a non-dense rid" ~instances:(instance_rows ~cold:false ())
      ~records:[ edit 1 ~tool:2 ~input:1 ~output:3; edit 3 ~tool:4 ~input:3 ~output:5 ]
      (Persist_error "record ids are not dense (3 loaded as 2)");
    damaged "a dangling cemented reference"
      ~cemented:(fun iid -> if iid = 4 then None else Some iid)
      ~instances:(instance_rows ~cold:true ())
      (Persist_error
         "instance 4: its payload is cemented put 4, which the cement store does not hold");
    damaged "a bad inline hash" ~instances:(instance_rows ~rehash:3 ~cold:false ())
      (Persist_error "instance 3: content hash mismatch (entry corrupt?)");
    damaged "a record the schema refuses" ~instances:(instance_rows ~cold:false ())
      ~records:
        [ edit 1 ~tool:2 ~input:1 ~output:3;
          { (edit 2 ~tool:4 ~input:3 ~output:5) with rp_inputs = [ ("layout", 3) ] } ]
      (refused "entity edited_netlist has no dependency role \"layout\"");
    damaged "a second producer" ~instances:(instance_rows ~cold:true ())
      ~cemented:Option.some
      ~records:[ edit 1 ~tool:2 ~input:1 ~output:3; edit 2 ~tool:4 ~input:1 ~output:3 ]
      (Ddf_error (`Conflict, "instance 3 already has a producing record"));
    damaged "a cycle through the record before it" ~instances:(instance_rows ~cold:false ())
      ~records:[ edit 1 ~tool:2 ~input:1 ~output:3; edit 2 ~tool:4 ~input:3 ~output:1 ]
      (refused "task graph contains a cycle");
    damaged "a record naming an uninstalled instance"
      ~instances:(instance_rows ~cold:false ())
      ~records:[ edit 1 ~tool:2 ~input:1 ~output:3; edit 2 ~tool:9 ~input:3 ~output:5 ]
      (Ddf_error (`Not_found, "no instance 9")) ]

let suite =
  [ ("persist.load", [ load_equivalence; lagging_reopen ]);
    ("persist.load_damaged", damaged_cases) ]
