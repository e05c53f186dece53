(* Field layouts: how a wire message's fields travel, described once
   and read four ways.  A protocol describes each message type as a
   [union] of cases (tag byte, verb, layout).  [encoder] and [decoder]
   compile a layout into the closures that turn a value into a binary
   frame body and back (once per case, when it is declared); [items]
   prints a value as `remote batch` text and [parse] reads one.  The
   byte-level primitives the binary codec runs on are here too, and
   the streams a document too large to build as one value (a
   checkpoint) is written and read through. *)

module S = Ddf_persist.Sexp

exception Wire_error of string

let wire_errorf fmt = Format.kasprintf (fun s -> raise (Wire_error s)) fmt

(* An iovec-style frame list: header buffers interleaved with borrowed
   payload slices.  [gather_write] flushes a whole list with one
   kernel write per socket-buffer fill (the C stub gathers outside the
   OCaml heap and writes with the runtime lock released), so a group
   of frames costs one syscall, not one per frame — and large payload
   bodies are never concatenated through an intermediate string on the
   OCaml side. *)
module Iovec = struct
  type slice = { io_base : string; io_off : int; io_len : int }

  external gather_write : Unix.file_descr -> slice array -> int -> int
    = "ddf_gather_write"

  let of_string s = { io_base = s; io_off = 0; io_len = String.length s }

  let total slices =
    List.fold_left (fun n s -> n + s.io_len) 0 slices

  let concat slices =
    let n = total slices in
    let b = Bytes.create n in
    let off = ref 0 in
    List.iter
      (fun s ->
        Bytes.blit_string s.io_base s.io_off b !off s.io_len;
        off := !off + s.io_len)
      slices;
    Bytes.unsafe_to_string b
end

(* Payload bodies at least this large travel as their own iovec slice
   (zero-copy on the OCaml side); smaller ones are cheaper to append
   to the scratch buffer than to carry as an extra slice. *)
let zero_copy_min = 512

(* A frame body lays out 8-byte ints and u32 lengths.  A stream lays
   out every int, length and count as an LEB128 varint (seven bits a
   byte, low group first, the top bit set on all but the last byte):
   the [v]-prefixed primitives.  A layout picks one set when it is
   compiled, so neither pays a test for the other. *)
module Enc = struct
  type t = {
    mutable slices : Iovec.slice list;  (* finalized, reversed *)
    buf : Buffer.t;                     (* scratch being filled *)
  }

  let create () = { slices = []; buf = Buffer.create 256 }

  let flush_buf e =
    if Buffer.length e.buf > 0 then begin
      e.slices <- Iovec.of_string (Buffer.contents e.buf) :: e.slices;
      Buffer.clear e.buf
    end

  let u8 e n = Buffer.add_char e.buf (Char.chr (n land 0xff))
  let u32 e n = Buffer.add_int32_le e.buf (Int32.of_int n)

  (* a negative int takes nine bytes: its 63 bits, unsigned *)
  let varint e n =
    let n = ref n in
    while !n lsr 7 <> 0 do
      Buffer.add_char e.buf (Char.unsafe_chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char e.buf (Char.unsafe_chr !n)

  let int e n = Buffer.add_int64_le e.buf (Int64.of_int n)
  let float e f = Buffer.add_int64_le e.buf (Int64.bits_of_float f)
  let bool e b = u8 e (if b then 1 else 0)

  let str e s =
    u32 e (String.length s);
    Buffer.add_string e.buf s

  let vstr e s =
    varint e (String.length s);
    Buffer.add_string e.buf s

  (* An opaque payload body: length-delimited raw bytes, borrowed as a
     slice when large — the codec never escapes or re-encodes them.  A
     stream, written out as one string, lays it out as a [vstr]. *)
  let payload e s =
    u32 e (String.length s);
    if String.length s >= zero_copy_min then begin
      flush_buf e;
      e.slices <- Iovec.of_string s :: e.slices
    end
    else Buffer.add_string e.buf s

  let opt e f = function
    | None -> u8 e 0
    | Some v ->
      u8 e 1;
      f e v

  let list e f l =
    u32 e (List.length l);
    List.iter (f e) l

  let vlist e f l =
    varint e (List.length l);
    List.iter (f e) l

  let finish e =
    flush_buf e;
    List.rev e.slices
end

let string_of_slices = function
  | [ { Iovec.io_base; io_off = 0; io_len } ]
    when io_len = String.length io_base ->
    io_base
  | slices -> Iovec.concat slices

(* A decoder reads [db] from [pos] up to its end limit [lim], never
   past it: a frame body can be decoded where it lies in a receive
   buffer holding other bytes too.  Offsets in messages count from
   [base], where the decoded bytes start. *)
module Dec = struct
  type t = {
    db : string;
    base : int;
    lim : int;
    mutable pos : int;
    mutable depth : int;
  }

  let sub s pos len = { db = s; base = pos; lim = pos + len; pos; depth = 0 }

  let of_string ?(pos = 0) s =
    { db = s; base = 0; lim = String.length s; pos; depth = 0 }

  let at d = d.pos - d.base

  (* written so that no [n], however large, overflows the test *)
  let need d n =
    if n > d.lim - d.pos then
      wire_errorf "truncated binary frame body (at byte %d)" (at d)

  let u8 d =
    need d 1;
    let v = Char.code d.db.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    need d 4;
    let v = Int32.to_int (String.get_int32_le d.db d.pos) land 0xFFFFFFFF in
    d.pos <- d.pos + 4;
    v

  (* at most nine bytes: 63 bits *)
  let varint d =
    let v = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > 56 then wire_errorf "varint longer than 9 bytes (at byte %d)" (at d);
      let b = u8 d in
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := b land 0x80 <> 0
    done;
    !v

  let int d =
    need d 8;
    let v = Int64.to_int (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let vlen d =
    let n = varint d in
    if n < 0 then wire_errorf "negative length (at byte %d)" (at d);
    n

  let float d =
    need d 8;
    let v = Int64.float_of_bits (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | n -> wire_errorf "bad boolean byte %d" n

  let body d n =
    need d n;
    let v = String.sub d.db d.pos n in
    d.pos <- d.pos + n;
    v

  let str d = body d (u32 d)
  let vstr d = body d (vlen d)
  let payload = str

  let opt d f =
    match u8 d with
    | 0 -> None
    | 1 -> Some (f d)
    | n -> wire_errorf "bad option byte %d" n

  (* cheap sanity bound, checked before anything is allocated: every
     item costs at least one byte *)
  let items d n =
    need d n;
    n

  let list d f = List.init (items d (u32 d)) (fun _ -> f d)
  let vcount d = items d (vlen d)
  let vlist d f = List.init (vcount d) (fun _ -> f d)

  let finish d =
    if d.pos <> d.lim then
      wire_errorf "trailing bytes in binary frame (%d of %d consumed)" (at d)
        (d.lim - d.base)

  (* A batch may hold a batch (the server answers it positionally with
     "batch requests do not nest"), but nothing deeper: the decoder
     recurses once per level, so an unbounded depth would let one frame
     exhaust the stack. *)
  let max_batch_depth = 2

  let nested d f =
    if d.depth >= max_batch_depth then
      wire_errorf "batch nested deeper than %d levels" max_batch_depth;
    d.depth <- d.depth + 1;
    let v = f d in
    d.depth <- d.depth - 1;
    v
end

type _ fld =
  | Unit : unit fld
  | Int : int fld
  | Float : float fld
  | Str : string fld
  | Payload : string fld
  | Sexp : S.t fld
  | Flag : string * string -> bool fld
  | Pair : 'a fld * 'b fld -> ('a * 'b) fld
  | Opt : 'a fld -> 'a option fld
  | List : 'a fld -> 'a list fld
  | Spread : 'a fld -> 'a list fld
  | Row : 'a fld -> 'a fld
  | Form : string * 'a fld -> 'a fld
  | Fields : 'a fld -> 'a fld
  | Named : string * 'a fld -> 'a option fld
  | Named_list : string * 'a fld -> 'a list fld
  | Map : ('a -> 'b) * ('b -> 'a) * 'a fld -> 'b fld
  | Union : 'a union -> 'a fld
  | Nest : 'a union -> 'a list fld

(* [enc] and [dec] are the case's frame-body codec, [venc] and [vdec]
   its stream codec, compiled from [fld] once, when the case is
   declared. *)
and ('f, 'a) case = {
  tag : int;
  name : string;
  fld : 'f fld;
  inj : 'f -> 'a;
  enc : Enc.t -> 'f -> unit;
  dec : Dec.t -> 'a;
  venc : Enc.t -> 'f -> unit;
  vdec : Dec.t -> 'a;
}
and 'a view = V : ('f, 'a) case * 'f -> 'a view
and 'a any_case = C : ('f, 'a) case -> 'a any_case

and 'a union = {
  what : string;
  mutable view : 'a -> 'a view;       (* the encoder's one match *)
  mutable cases : 'a any_case list;   (* the text parser's verbs *)
  by_tag : 'a any_case option array;  (* the decoder's lookup *)
}

(* --- binary: each layout compiled to a closure once --- *)

(* [v] picks the stream's varint primitives over the frame body's. *)
let rec encoder : type a. bool -> a fld -> Enc.t -> a -> unit =
 fun v -> function
  | Unit -> fun _ () -> ()
  | Int -> if v then Enc.varint else Enc.int
  | Float -> Enc.float
  | Str -> if v then Enc.vstr else Enc.str
  | Payload -> if v then Enc.vstr else Enc.payload
  (* a design-object value rides as one opaque body: a [Text] leaf's
     bytes are copied as they are, a tree is printed flat *)
  | Sexp ->
    let payload = if v then Enc.vstr else Enc.payload in
    fun e x -> payload e (S.to_string ~pretty:false x)
  | Flag _ -> Enc.bool
  | Pair (a, b) ->
    let ea = encoder v a and eb = encoder v b in
    fun e (x, y) ->
      ea e x;
      eb e y
  | Opt f -> enc_opt (encoder v f)
  | Named (_, f) -> enc_opt (encoder v f)
  | List f -> enc_list v (encoder v f)
  | Spread f -> enc_list v (encoder v f)
  | Named_list (_, f) -> enc_list v (encoder v f)
  | Row f | Form (_, f) | Fields f -> encoder v f
  | Map (_, prj, f) ->
    let ef = encoder v f in
    fun e x -> ef e (prj x)
  | Union u -> enc_case v u
  | Nest u -> enc_list v (enc_case v u)

(* Each returns a closure of two arguments, the arity every encoder is
   called with: applying a partial application of a three-argument
   function would allocate at every call. *)
and enc_opt : type a. (Enc.t -> a -> unit) -> Enc.t -> a option -> unit =
 fun f ->
  let enc e x = Enc.opt e f x in
  enc

and enc_list : type a. bool -> (Enc.t -> a -> unit) -> Enc.t -> a list -> unit =
 fun v f ->
  if v then
    let enc e x = Enc.vlist e f x in
    enc
  else
    let enc e x = Enc.list e f x in
    enc

and enc_case : type a. bool -> a union -> Enc.t -> a -> unit =
 fun v u ->
  if v then
    let enc e x =
      let (V (c, y)) = u.view x in
      Enc.u8 e c.tag;
      c.venc e y
    in
    enc
  else
    let enc e x =
      let (V (c, y)) = u.view x in
      Enc.u8 e c.tag;
      c.enc e y
    in
    enc

let rec decoder : type a. bool -> a fld -> Dec.t -> a =
 fun v -> function
  | Unit -> fun _ -> ()
  | Int -> if v then Dec.varint else Dec.int
  | Float -> Dec.float
  | Str -> if v then Dec.vstr else Dec.str
  | Payload -> if v then Dec.vstr else Dec.payload
  | Sexp ->
    let payload = if v then Dec.vstr else Dec.payload in
    (* checked here, so a malformed value is refused with its frame;
       read once, by the evaluator *)
    fun d ->
      let body = payload d in
      (try S.check body with S.Sexp_error m -> wire_errorf "install value: %s" m);
      S.Text body
  | Flag _ -> Dec.bool
  | Pair (a, b) ->
    let da = decoder v a and db = decoder v b in
    fun d ->
      let x = da d in
      (x, db d)
  | Opt f -> dec_opt (decoder v f)
  | Named (_, f) -> dec_opt (decoder v f)
  | List f -> dec_list v (decoder v f)
  | Spread f -> dec_list v (decoder v f)
  | Named_list (_, f) -> dec_list v (decoder v f)
  | Row f | Form (_, f) | Fields f -> decoder v f
  | Map (inj, _, f) ->
    let df = decoder v f in
    fun d -> inj (df d)
  | Union u -> dec_case v u
  | Nest u ->
    let dl = dec_list v (dec_case v u) in
    fun d -> Dec.nested d dl

and dec_opt : type a. (Dec.t -> a) -> Dec.t -> a option =
 fun f d -> Dec.opt d f

and dec_list : type a. bool -> (Dec.t -> a) -> Dec.t -> a list =
 fun v f -> if v then fun d -> Dec.vlist d f else fun d -> Dec.list d f

and dec_case : type a. bool -> a union -> Dec.t -> a =
 fun v u ->
  if v then fun d ->
    let (C c) = dec_tag u d in
    c.vdec d
  else fun d ->
    let (C c) = dec_tag u d in
    c.dec d

and dec_tag : type a. a union -> Dec.t -> a any_case =
 fun u d ->
  let t = Dec.u8 d in
  match u.by_tag.(t) with
  | Some c -> c
  | None -> wire_errorf "unknown binary %s tag %d" u.what t

let ( ** ) a b = Pair (a, b)

let union what =
  { what; view = (fun _ -> invalid_arg what); cases = [];
    by_tag = Array.make 256 None }

let case u tag name fld inj =
  if Option.is_some u.by_tag.(tag)
     || List.exists (fun (C c) -> c.name = name) u.cases
  then invalid_arg (Printf.sprintf "%s %d %S declared twice" u.what tag name);
  let dec = decoder false fld and vdec = decoder true fld in
  let c =
    { tag; name; fld; inj; enc = encoder false fld;
      dec = (fun d -> inj (dec d)); venc = encoder true fld;
      vdec = (fun d -> inj (vdec d)) }
  in
  u.cases <- C c :: u.cases;
  u.by_tag.(tag) <- Some (C c);
  c

let described u view =
  u.view <- view;
  Union u

let verb u v =
  let (V (c, _)) = u.view v in
  c.name

let to_slices f v =
  let e = Enc.create () in
  encoder false f e v;
  Enc.finish e

let to_string f v = string_of_slices (to_slices f v)

let of_substring f s pos len =
  let d = Dec.sub s pos len in
  let v = decoder false f d in
  Dec.finish d;
  v

let of_string f s = of_substring f s 0 (String.length s)

let of_prefix f s pos =
  let d = Dec.sub s pos (String.length s - pos) in
  let v = decoder false f d in
  (v, d.pos)

(* --- streams: varint layouts after a raw head --- *)

type writer = Enc.t
type reader = Dec.t

let writer ~head =
  let w = Enc.create () in
  Buffer.add_string w.buf head;
  w

let write f = encoder true f

let write_each f =
  let enc = encoder true f in
  fun w prj l ->
    Enc.varint w (List.length l);
    List.iter (fun x -> enc w (prj x)) l

let written w = string_of_slices (Enc.finish w)

let reader ~head s =
  if not (String.starts_with ~prefix:head s) then
    wire_errorf "not a stream: the head %S is missing" head;
  Dec.of_string ~pos:(String.length head) s

let read f = decoder true f

let read_each f =
  let dec = decoder true f in
  fun r g ->
    for _ = 1 to Dec.vcount r do
      g (dec r)
    done

let read_end = Dec.finish

(* --- text --- *)

let rec items : type a. a fld -> a -> S.t list =
 fun f v ->
  match f with
  | Unit -> []
  | Int -> [ S.int v ]
  | Float -> [ S.float v ]
  | Str -> [ S.atom v ]
  | Payload -> [ S.atom v ]
  | Sexp -> [ v ]
  | Flag (yes, no) -> [ S.atom (if v then yes else no) ]
  | Pair (a, b) -> items a (fst v) @ items b (snd v)
  | Opt f -> ( match v with None -> [ S.atom "-" ] | Some x -> items f x)
  | List f -> [ S.list (List.concat_map (items f) v) ]
  | Spread f -> List.concat_map (items f) v
  | Row f -> [ S.list (items f v) ]
  | Form (n, f) -> [ S.field n (items f v) ]
  | Fields f -> items f v
  | Named (n, f) -> Option.fold ~none:[] ~some:(items (Form (n, f))) v
  | Named_list (_, _) when v = [] -> []
  | Named_list (n, f) -> [ S.field n (List.concat_map (items f) v) ]
  | Map (_, prj, f) -> items f (prj v)
  | Union u -> [ to_sexp u v ]
  | Nest u -> List.map (to_sexp u) v

and to_sexp : type a. a union -> a -> S.t =
 fun u v ->
  let (V (c, x)) = u.view v in
  match c.fld with Unit -> S.atom c.name | f -> S.field c.name (items f x)

(* Read [f] off the front of [its]; the rest is returned.  Only
   requests are read, and no request carries a float, a flag or a
   [-]-or-value option. *)
let rec parse : type a. a fld -> S.t list -> a * S.t list =
 fun f its ->
  let one conv =
    match its with
    | x :: rest -> (conv x, rest)
    | [] -> wire_errorf "missing item"
  in
  match f with
  | Unit -> ((), its)
  | Int -> one S.as_int
  | Str -> one S.as_atom
  | Payload -> one S.as_atom
  | Sexp -> one Fun.id
  | Float | Flag _ | Opt _ -> wire_errorf "no request reads this field"
  | Pair (a, b) ->
    let x, rest = parse a its in
    let y, rest = parse b rest in
    ((x, y), rest)
  | List f -> one (fun x -> parse_all f (S.as_list x))
  | Spread f -> (parse_all f its, [])
  | Row f -> one (fun x -> parse_full f (S.as_list x))
  | Form (n, f) ->
    one (function
      | S.List (S.Atom m :: args) when m = n -> parse_full f args
      | _ -> wire_errorf "expected a (%s ...) form" n)
  (* named forms come in any order, and unknown ones are ignored *)
  | Fields f -> (fst (parse f its), [])
  | Named (n, f) -> (Option.map (parse_full f) (S.find_field_opt its n), its)
  | Named_list (n, f) ->
    (Option.fold ~none:[] ~some:(parse_all f) (S.find_field_opt its n), its)
  | Map (inj, _, f) ->
    let x, rest = parse f its in
    (inj x, rest)
  | Union u -> one (of_sexp u)
  | Nest u -> (List.map (of_sexp u) its, [])

and parse_all : type a. a fld -> S.t list -> a list =
 fun f its ->
  if its = [] then []
  else
    let x, rest = parse f its in
    x :: parse_all f rest

and parse_full : type a. a fld -> S.t list -> a =
 fun f its ->
  match parse f its with
  | x, [] -> x
  | _, extra :: _ -> wire_errorf "unexpected %s" (S.to_string extra)

(* A verb without fields is a bare atom, any other heads a list. *)
and of_sexp : type a. a union -> S.t -> a =
 fun u sexp ->
  let find verb =
    match List.find_opt (fun (C c) -> c.name = verb) u.cases with
    | Some k -> k
    | None -> wire_errorf "unknown %s %S" u.what verb
  in
  match sexp with
  | S.Atom verb -> (
    let (C c) = find verb in
    match c.fld with Unit -> c.inj () | _ -> wire_errorf "malformed %s" u.what)
  | S.List (S.Atom verb :: args) -> (
    let (C c) = find verb in
    match c.fld with
    | Unit -> wire_errorf "malformed %s" u.what
    | f -> c.inj (parse_full f args))
  | S.List _ | S.Text _ -> wire_errorf "malformed %s" u.what
