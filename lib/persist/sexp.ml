(* A minimal s-expression reader/printer: the workspace's on-disk
   syntax.  Atoms are bare words or double-quoted strings with the
   usual escapes; lists are parenthesized.  A [Text] leaf is an
   s-expression kept as its flat text, so a design value travels from
   its printer to the journal without a tree in between. *)

type t =
  | Atom of string
  | List of t list
  | Text of string

exception Sexp_error of string

let sexp_errorf fmt = Format.kasprintf (fun s -> raise (Sexp_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let must_quote s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
         | _ -> false)
       s

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_atom buf s =
  if must_quote s then add_escaped buf s else Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* The cursor                                                          *)
(* ------------------------------------------------------------------ *)

(* Far deeper than anything the codecs, checkpoints or journal write
   (a few dozen levels); the bound stops a hostile input from growing
   the reader's stack with its nesting. *)
let max_depth = 1000

(* One left-to-right scan by index: no option or closure per
   character, and an atom without escapes is one [String.sub].  The
   tree reader, the checker and the value codecs all read through it,
   so the syntax is decided in one place. *)
type cursor = { text : string; len : int; mutable pos : int; mutable depth : int }

type token = Open | Close | Word | End

let cursor text = { text; len = String.length text; pos = 0; depth = 0 }

let rec skip_ws text len i =
  if i >= len then i
  else
    match String.unsafe_get text i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws text len (i + 1)
    | ';' -> skip_comment text len (i + 1)
    | _ -> i

and skip_comment text len i =
  if i >= len then i
  else if String.unsafe_get text i = '\n' then skip_ws text len (i + 1)
  else skip_comment text len (i + 1)

let peek c =
  let i = skip_ws c.text c.len c.pos in
  c.pos <- i;
  if i >= c.len then End
  else
    match String.unsafe_get c.text i with
    | '(' -> Open
    | ')' -> Close
    | _ -> Word

let enter c =
  if c.depth >= max_depth then
    sexp_errorf "lists nested deeper than %d at %d" max_depth c.pos;
  c.depth <- c.depth + 1;
  c.pos <- c.pos + 1

let leave c =
  c.depth <- c.depth - 1;
  c.pos <- c.pos + 1

let rec bare_end text len i =
  if i >= len then i
  else
    match String.unsafe_get text i with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> i
    | _ -> bare_end text len (i + 1)

let rec plain_end text len i =
  if i < len && String.unsafe_get text i <> '"' && String.unsafe_get text i <> '\\'
  then plain_end text len (i + 1)
  else i

let unescape = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | '"' -> '"'
  | '\\' -> '\\'
  | c -> sexp_errorf "bad escape \\%c" c

(* The end of the quoted atom whose body starts at [i], its escapes
   checked: nothing is allocated. *)
let rec quoted_end text len i =
  let stop = plain_end text len i in
  if stop >= len then sexp_errorf "unterminated string at %d" stop
  else if String.unsafe_get text stop = '"' then stop + 1
  else if stop + 1 >= len then sexp_errorf "dangling escape"
  else begin
    ignore (unescape (String.unsafe_get text (stop + 1)) : char);
    quoted_end text len (stop + 2)
  end

let quoted_atom c =
  let text = c.text and len = c.len in
  let start = c.pos + 1 in
  let stop = plain_end text len start in
  if stop < len && String.unsafe_get text stop = '"' then begin
    c.pos <- stop + 1;
    String.sub text start (stop - start)
  end
  else begin
    let buf = Buffer.create (2 * (stop - start) + 16) in
    let rec go i =
      let stop = plain_end text len i in
      Buffer.add_substring buf text i (stop - i);
      if stop >= len then sexp_errorf "unterminated string at %d" stop
      else if String.unsafe_get text stop = '"' then c.pos <- stop + 1
      else if stop + 1 >= len then sexp_errorf "dangling escape"
      else begin
        Buffer.add_char buf (unescape (String.unsafe_get text (stop + 1)));
        go (stop + 2)
      end
    in
    go start;
    Buffer.contents buf
  end

let atom_at c =
  if String.unsafe_get c.text c.pos = '"' then quoted_atom c
  else begin
    let start = c.pos in
    c.pos <- bare_end c.text c.len start;
    String.sub c.text start (c.pos - start)
  end

(* The decimal digits in [i, stop) as a number, or -1 if another
   character is among them. *)
let rec digits text stop i acc =
  if i >= stop then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as d -> digits text stop (i + 1) ((acc * 10) + Char.code d - 48)
    | _ -> -1

(* A bare decimal atom of at most 18 digits is read in place; anything
   else [int_of_string] decides, as for a tree's atom. *)
let int_at c =
  let text = c.text and start = c.pos in
  if String.unsafe_get text start = '"' then begin
    let s = quoted_atom c in
    match int_of_string_opt s with
    | Some i -> i
    | None -> sexp_errorf "expected an integer, got %S" s
  end
  else begin
    let stop = bare_end text c.len start in
    c.pos <- stop;
    let neg = String.unsafe_get text start = '-' in
    let first = if neg then start + 1 else start in
    let n =
      if first < stop && stop - first <= 18 then digits text stop first 0 else -1
    in
    if n >= 0 then if neg then -n else n
    else
      let s = String.sub text start (stop - start) in
      match int_of_string_opt s with
      | Some i -> i
      | None -> sexp_errorf "expected an integer, got %S" s
  end

let rec same_at text start word i len =
  i >= len
  || String.unsafe_get text (start + i) = String.unsafe_get word i
     && same_at text start word (i + 1) len

let rec word_in text start stop words i =
  if i >= Array.length words then -1
  else
    let w = Array.unsafe_get words i in
    if String.length w = stop - start && same_at text start w 0 (stop - start)
    then i
    else word_in text start stop words (i + 1)

let word_index c words =
  if String.unsafe_get c.text c.pos = '"' then -1
  else
    let stop = bare_end c.text c.len c.pos in
    let i = word_in c.text c.pos stop words 0 in
    if i >= 0 then c.pos <- stop;
    i

(* Past one whole s-expression from [i], checking it as [of_string]
   would without building it: one tail-recursive scan that counts the
   lists it opens, so no stack either.  [depth] counts the lists open
   inside the scan, on top of the [outer] the cursor had entered. *)
let rec scan text len outer i depth =
  let i = skip_ws text len i in
  if i >= len then
    if depth = 0 then sexp_errorf "unexpected end of input"
    else sexp_errorf "unterminated list"
  else
    match String.unsafe_get text i with
    | '(' ->
      if outer + depth >= max_depth then
        sexp_errorf "lists nested deeper than %d at %d" max_depth i;
      scan text len outer (i + 1) (depth + 1)
    | ')' ->
      if depth = 0 then sexp_errorf "unexpected ')' at %d" i
      else if depth = 1 then i + 1
      else scan text len outer (i + 1) (depth - 1)
    | '"' ->
      let i = quoted_end text len (i + 1) in
      if depth = 0 then i else scan text len outer i depth
    | _ ->
      let i = bare_end text len i in
      if depth = 0 then i else scan text len outer i depth

let skip c = c.pos <- scan c.text c.len c.depth c.pos 0

let finish c =
  if peek c <> End then sexp_errorf "trailing input at %d" c.pos

(* ------------------------------------------------------------------ *)
(* Trees                                                               *)
(* ------------------------------------------------------------------ *)

let rec read c =
  match peek c with
  | Word -> Atom (atom_at c)
  | Open ->
    enter c;
    let rec items acc =
      match peek c with
      | Close ->
        leave c;
        List (List.rev acc)
      | End -> sexp_errorf "unterminated list"
      | Open | Word -> items (read c :: acc)
    in
    items []
  | Close -> sexp_errorf "unexpected ')' at %d" c.pos
  | End -> sexp_errorf "unexpected end of input"

let of_string text =
  let c = cursor text in
  let result = read c in
  finish c;
  result

let check text =
  let c = cursor text in
  skip c;
  finish c

(* The pretty layout: an item of a list opened at [depth] that is
   itself a list starts a new line indented [depth + 1] (long lists
   break across lines for readable diffs); any other item follows a
   space; the first follows the paren.  [depth] < 0 prints flat, and a
   [Text] leaf, already flat, is copied; the pretty layout reads it
   back to lay it out as its tree. *)
let separator buf ~depth ~first ~list =
  if not first then
    if list && depth >= 0 then begin
      Buffer.add_char buf '\n';
      for _ = 0 to depth do Buffer.add_char buf ' ' done
    end
    else Buffer.add_char buf ' '

let rec to_buffer buf indent = function
  | Atom s -> add_atom buf s
  | Text s when indent < 0 -> Buffer.add_string buf s
  | Text s -> to_buffer buf indent (of_string s)
  | List items ->
    Buffer.add_char buf '(';
    List.iteri (fun i item -> add_item buf ~depth:indent ~first:(i = 0) item) items;
    Buffer.add_char buf ')'

and add_item buf ~depth ~first item =
  let list =
    match item with
    | List _ -> true
    | Atom _ -> false
    | Text s ->
      let i = skip_ws s (String.length s) 0 in
      i < String.length s && s.[i] = '('
  in
  separator buf ~depth ~first ~list;
  to_buffer buf (if depth >= 0 then depth + 1 else depth) item

let to_string ?(pretty = true) = function
  | Text s when not pretty -> s
  | sexp ->
    let buf = Buffer.create 1024 in
    to_buffer buf (if pretty then 0 else -1) sexp;
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Construction / destructuring helpers                                *)
(* ------------------------------------------------------------------ *)

let atom s = Atom s
let int i = Atom (string_of_int i)
let float f = Atom (Printf.sprintf "%h" f)
let bool b = Atom (string_of_bool b)
let list l = List l
let field name items = List (Atom name :: items)

let as_atom = function
  | Atom s -> s
  | List _ | Text _ -> sexp_errorf "expected an atom"

let as_int sexp =
  match int_of_string_opt (as_atom sexp) with
  | Some i -> i
  | None -> sexp_errorf "expected an integer, got %S" (as_atom sexp)

let as_list = function
  | List l -> l
  | Atom a -> sexp_errorf "expected a list, got atom %S" a
  | Text _ -> sexp_errorf "expected a list, got a text leaf"

(* Access the payload of a [(name item...)] field inside a record. *)
let find_field_opt fields name =
  let matches = function
    | List (Atom n :: rest) when n = name -> Some rest
    | List _ | Atom _ | Text _ -> None
  in
  List.find_map matches fields

let one name = function
  | [ x ] -> x
  | _ -> sexp_errorf "field %S expects one item" name
