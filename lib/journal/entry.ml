(* The journal's entries, described once (see Ddf_wire.Layout).

     put       p  iid clock entity hash meta text
     note      n  iid meta
     record    r  clock rid task tool? inputs outputs at
     conflict  c  clock id base ours theirs origin at
     resolve   v  clock id winner

   The first byte is the kind, and put and note follow it with their
   iid as eight little-endian bytes: [classify] reads exactly that
   head, so the cement index never decodes a whole entry.  Kind bytes
   are disk format: never renumber. *)

module L = Ddf_wire.Layout

type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Ddf_store.Store.iid option;
  rp_inputs : (string * Ddf_store.Store.iid) list;
  rp_outputs : (string * Ddf_store.Store.iid) list;
  rp_at : int;
}

type t =
  | Put of {
      iid : int;
      clock : int;
      entity : string;
      hash : string;
      meta : Ddf_store.Store.meta;
      text : string;
    }
  | Note of { iid : int; meta : Ddf_store.Store.meta }
  | Record of { clock : int; record : record_parts }
  | Conflict of {
      clock : int;
      conflict : int;
      base : int;
      ours : int;
      theirs : int;
      origin : string;
      at : int;
    }
  | Resolve of { clock : int; conflict : int; winner : int }

let format_version = 2

let ( ** ) = L.( ** )
let meta = Ddf_wire.Wire.meta
let binding = L.List (L.Str ** L.Int)

let record_parts =
  L.Map
    ( (fun (rp_rid, (rp_task_entity, (rp_tool, (rp_inputs, (rp_outputs, rp_at)))))
       -> { rp_rid; rp_task_entity; rp_tool; rp_inputs; rp_outputs; rp_at }),
      (fun p ->
        (p.rp_rid, (p.rp_task_entity, (p.rp_tool, (p.rp_inputs,
          (p.rp_outputs, p.rp_at)))))),
      L.Int ** L.Str ** L.Opt L.Int ** binding ** binding ** L.Int )

let u = L.union "journal entry"

let put =
  L.case u (Char.code 'p') "put"
    (L.Int ** L.Int ** L.Str ** L.Str ** meta ** L.Str)
    (fun (iid, (clock, (entity, (hash, (meta, text))))) ->
      Put { iid; clock; entity; hash; meta; text })

let note =
  L.case u (Char.code 'n') "note" (L.Int ** meta) (fun (iid, meta) ->
      Note { iid; meta })

let record =
  L.case u (Char.code 'r') "record" (L.Int ** record_parts)
    (fun (clock, record) -> Record { clock; record })

let conflict =
  L.case u (Char.code 'c') "conflict"
    (L.Int ** L.Int ** L.Int ** L.Int ** L.Int ** L.Str ** L.Int)
    (fun (clock, (conflict, (base, (ours, (theirs, (origin, at)))))) ->
      Conflict { clock; conflict; base; ours; theirs; origin; at })

let resolve =
  L.case u (Char.code 'v') "resolve" (L.Int ** L.Int ** L.Int)
    (fun (clock, (conflict, winner)) -> Resolve { clock; conflict; winner })

let fld =
  L.described u (function
    | Put { iid; clock; entity; hash; meta; text } ->
      L.V (put, (iid, (clock, (entity, (hash, (meta, text))))))
    | Note { iid; meta } -> L.V (note, (iid, meta))
    | Record { clock; record = r } -> L.V (record, (clock, r))
    | Conflict { clock; conflict = id; base; ours; theirs; origin; at } ->
      L.V (conflict, (clock, (id, (base, (ours, (theirs, (origin, at)))))))
    | Resolve { clock; conflict = id; winner } ->
      L.V (resolve, (clock, (id, winner))))

let encode e = L.to_string fld e

let decode payload =
  if String.length payload > 0 && payload.[0] = '(' then
    Ddf_core.Error.errorf `Invalid
      "journal entry format 1 (s-expression) is not readable: this build \
       reads format %d (binary entries) only"
      format_version;
  try L.of_string fld payload
  with L.Wire_error m -> Ddf_core.Error.errorf `Internal "journal entry: %s" m

let value ~iid ~hash text =
  let value =
    try Ddf_persist.Codec.value_of_text text
    with Ddf_persist.Codec.Codec_error m ->
      Ddf_core.Error.errorf `Internal "value of instance %d: %s" iid m
  in
  if Ddf_data.hash value <> hash then
    Ddf_core.Error.errorf `Internal
      "instance %d: content hash mismatch (entry corrupt?)" iid;
  value

(* The index stores the id in twelve decimal digits. *)
let max_indexed_id = 999_999_999_999

let classify payload =
  let n = String.length payload in
  if n = 0 then ('?', 0)
  else
    match payload.[0] with
    | ('p' | 'n') as kind when n >= 9 ->
      let iid = Int64.to_int (String.get_int64_le payload 1) in
      if iid >= 0 && iid <= max_indexed_id then (kind, iid) else ('?', 0)
    | ('r' | 'c' | 'v') as kind -> (kind, 0)
    | _ -> ('?', 0)
