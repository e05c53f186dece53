(* Workspace persistence: the framework is a database in the paper, so
   a session -- store instances with their meta-data, history records,
   the flow catalog, the logical clock -- saves to one s-expression
   file and loads back bit-for-bit.

   Instance and record identifiers are dense and allocated in order by
   the store and the history, so loading re-inserts them in id order
   and asserts the ids come back unchanged; every inline payload's
   content hash is recomputed on load and checked against the stored
   one.

   Format version 2 tags each instance's payload slot:

     (value V)        the payload inline (a self-contained save)
     (cemented SEQ)   a reference to the cemented put frame SEQ that
                      installed the instance (a journal checkpoint)

   A referenced instance loads without a resident payload; the journal
   checks every reference against its cement store and wires the cold
   loader that fills the payload on first read.  Version 1 files (a
   bare value in the slot) still load. *)

open Ddf_store
open Ddf_history
module S = Sexp

exception Persist_error of string

let persist_errorf fmt = Format.kasprintf (fun s -> raise (Persist_error s)) fmt

let format_version = 2

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

let meta_to_sexp (m : Store.meta) =
  S.list
    [ S.atom m.Store.user; S.int m.Store.created_at; S.atom m.Store.label;
      S.atom m.Store.comment; S.list (List.map S.atom m.Store.keywords) ]

let meta_of_sexp sexp =
  match S.as_list sexp with
  | [ user; created_at; label; comment; keywords ] ->
    Store.meta ~user:(S.as_atom user) ~label:(S.as_atom label)
      ~comment:(S.as_atom comment)
      ~keywords:(List.map S.as_atom (S.as_list keywords))
      ~created_at:(S.as_int created_at) ()
  | _ -> persist_errorf "malformed meta"

let instance_to_sexp ~cemented store iid =
  let slot =
    match cemented iid with
    | Some seq -> S.field "cemented" [ S.int seq ]
    | None -> S.field "value" [ Codec.value_to_sexp (Store.payload store iid) ]
  in
  S.list
    [ S.int iid;
      S.atom (Store.entity_of store iid);
      meta_to_sexp (Store.meta_of store iid);
      S.atom (Store.hash_of store iid);
      slot ]

let record_to_sexp (r : History.record) =
  S.list
    [ S.int r.History.rid;
      S.atom r.History.task_entity;
      (match r.History.tool with None -> S.atom "-" | Some t -> S.int t);
      S.list
        (List.map
           (fun (role, iid) -> S.list [ S.atom role; S.int iid ])
           r.History.inputs);
      S.list
        (List.map
           (fun (entity, iid) -> S.list [ S.atom entity; S.int iid ])
           r.History.outputs);
      S.int r.History.at ]

let conflict_to_sexp (c : History.conflict) =
  S.list
    [ S.int c.History.cid; S.int c.History.c_base; S.int c.History.c_ours;
      S.int c.History.c_theirs; S.atom c.History.c_origin;
      S.int c.History.c_at;
      (match c.History.c_winner with None -> S.atom "-" | Some w -> S.int w) ]

let conflict_of_sexp sexp =
  match S.as_list sexp with
  | [ cid; base; ours; theirs; origin; at; winner ] ->
    let winner =
      match winner with S.Atom "-" -> None | w -> Some (S.as_int w)
    in
    (S.as_int cid, S.as_int base, S.as_int ours, S.as_int theirs,
     S.as_atom origin, S.as_int at, winner)
  | _ -> persist_errorf "malformed conflict"

type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Store.iid option;
  rp_inputs : (string * Store.iid) list;
  rp_outputs : (string * Store.iid) list;
  rp_at : int;
}

let record_of_sexp sexp =
  match S.as_list sexp with
  | [ rid; task; tool; inputs; outputs; at ] ->
    let tool = match tool with S.Atom "-" -> None | t -> Some (S.as_int t) in
    let pair sexp =
      match S.as_list sexp with
      | [ k; iid ] -> (S.as_atom k, S.as_int iid)
      | _ -> persist_errorf "malformed binding"
    in
    { rp_rid = S.as_int rid; rp_task_entity = S.as_atom task; rp_tool = tool;
      rp_inputs = List.map pair (S.as_list inputs);
      rp_outputs = List.map pair (S.as_list outputs); rp_at = S.as_int at }
  | _ -> persist_errorf "malformed record"

(* The workspace is one list, printed item by item so its tree is never
   built whole: the instance and record sections stream one element at
   a time (each element's small tree dies young), byte-identical to
   printing the whole tree. *)
let save ?(cemented = fun _ -> None) session =
  let ctx = Ddf_session.Session.context session in
  let store = ctx.Ddf_exec.Engine.store in
  let history = ctx.Ddf_exec.Engine.history in
  let buf = Buffer.create 65536 in
  let item sexp = S.add_item buf ~depth:0 ~first:false sexp in
  let section name to_sexp elements =
    S.open_item buf ~depth:0 ~first:false;
    S.add_item buf ~depth:1 ~first:true (S.atom name);
    List.iter (fun e -> S.add_item buf ~depth:1 ~first:false (to_sexp e)) elements;
    Buffer.add_char buf ')'
  in
  Buffer.add_char buf '(';
  S.add_item buf ~depth:0 ~first:true (S.atom "ddf_workspace");
  item (S.field "version" [ S.int format_version ]);
  item (S.field "user" [ S.atom ctx.Ddf_exec.Engine.user ]);
  item (S.field "clock" [ S.int ctx.Ddf_exec.Engine.clock ]);
  section "instances" (instance_to_sexp ~cemented store) (Store.all_instances store);
  section "records" record_to_sexp (History.records history);
  (* omitted when empty, so files without sync conflicts keep the
     exact pre-sync shape *)
  (match History.all_conflicts history with
  | [] -> ()
  | cs -> section "conflicts" conflict_to_sexp cs);
  section "flows" Fun.id
    (List.filter_map
       (fun name ->
         Option.map
           (fun g ->
             S.list [ S.atom name; S.atom (Ddf_graph.Sexp_form.to_string g) ])
           (Ddf_session.Session.catalog_flow session name))
       (Ddf_session.Session.flow_catalog session));
  Buffer.add_string buf ")\n";
  Buffer.contents buf

let save_file session path =
  let oc = open_out path in
  (try output_string oc (save session)
   with e ->
     close_out oc;
     raise e);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load ?registry ?(cemented = fun _ -> None) schema text =
  let sexp =
    try S.of_string text
    with S.Sexp_error m -> persist_errorf "syntax: %s" m
  in
  let fields =
    match S.as_list sexp with
    | S.Atom "ddf_workspace" :: fields -> fields
    | _ -> persist_errorf "not a ddf workspace file"
  in
  let version = S.as_int (S.one "version" (S.find_field fields "version")) in
  if version < 1 || version > format_version then
    persist_errorf "unsupported format version %d" version;
  let user = S.as_atom (S.one "user" (S.find_field fields "user")) in
  let ctx = Ddf_exec.Engine.create_context ~user ?registry schema in
  let session = Ddf_session.Session.of_context ctx in
  let instances =
    S.find_field fields "instances"
    |> List.map (fun sexp ->
           match S.as_list sexp with
           | [ iid; entity; meta; hash; value ] ->
             (S.as_int iid, S.as_atom entity, meta_of_sexp meta,
              S.as_atom hash, value)
           | _ -> persist_errorf "malformed instance")
    |> List.sort compare
  in
  let store = ctx.Ddf_exec.Engine.store in
  let put_inline iid ~entity ~meta stored_hash value_sexp =
    let value =
      try Codec.value_of_sexp value_sexp
      with Codec.Codec_error m -> persist_errorf "instance %d: %s" iid m
    in
    let hash = Ddf_data.hash value in
    if hash <> stored_hash then
      persist_errorf "instance %d: content hash mismatch (file corrupt?)" iid;
    Store.put store ~entity ~hash ~meta value
  in
  List.iter
    (fun (iid, entity, meta, hash, slot) ->
      let got =
        match slot with
        | _ when version = 1 -> put_inline iid ~entity ~meta hash slot
        | S.List [ S.Atom "value"; v ] -> put_inline iid ~entity ~meta hash v
        | S.List [ S.Atom "cemented"; seq ] ->
          let seq = S.as_int seq in
          if cemented iid <> Some seq then
            persist_errorf
              "instance %d: its payload is cemented put %d, which the cement \
               store does not hold"
              iid seq;
          Store.put_cold store ~entity ~hash ~meta
        | _ -> persist_errorf "instance %d: malformed payload slot" iid
      in
      if got <> iid then
        persist_errorf "instance ids are not dense (%d loaded as %d)" iid got)
    instances;
  (* history records, in rid order *)
  let records =
    S.find_field fields "records"
    |> List.map record_of_sexp
    |> List.sort (fun a b -> compare a.rp_rid b.rp_rid)
  in
  List.iter
    (fun p ->
      let r =
        History.add ctx.Ddf_exec.Engine.history ctx.Ddf_exec.Engine.store
          ctx.Ddf_exec.Engine.schema ~task_entity:p.rp_task_entity
          ~tool:p.rp_tool ~inputs:p.rp_inputs ~outputs:p.rp_outputs ~at:p.rp_at
      in
      if r.History.rid <> p.rp_rid then
        persist_errorf "record ids are not dense (%d loaded as %d)" p.rp_rid
          r.History.rid)
    records;
  (* sync conflicts (optional section; absent in pre-sync files) *)
  (match S.find_field_opt fields "conflicts" with
  | None -> ()
  | Some sexps ->
    sexps
    |> List.map conflict_of_sexp
    |> List.sort compare
    |> List.iter (fun (cid, base, ours, theirs, origin, at, winner) ->
           let c =
             History.add_conflict ctx.Ddf_exec.Engine.history ~base ~ours
               ~theirs ~origin ~at
           in
           if c.History.cid <> cid then
             persist_errorf "conflict ids are not dense (%d loaded as %d)" cid
               c.History.cid;
           match winner with
           | None -> ()
           | Some w ->
             ignore (History.resolve_conflict ctx.Ddf_exec.Engine.history cid
                       ~winner:w)));
  (* the clock resumes where it stopped *)
  ctx.Ddf_exec.Engine.clock <-
    S.as_int (S.one "clock" (S.find_field fields "clock"));
  (* the flow catalog *)
  List.iter
    (fun sexp ->
      match S.as_list sexp with
      | [ name; flow_text ] ->
        let g = Ddf_graph.Sexp_form.of_string schema (S.as_atom flow_text) in
        Ddf_session.Session.restore_flow session (S.as_atom name) g
      | _ -> persist_errorf "malformed catalog flow")
    (S.find_field fields "flows");
  session

let load_file ?registry ?cemented schema path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  load ?registry ?cemented schema text
