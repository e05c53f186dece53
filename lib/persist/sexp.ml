(* A minimal s-expression reader/printer: the workspace's on-disk
   syntax.  Atoms are bare words or double-quoted strings with the
   usual escapes; lists are parenthesized. *)

type t =
  | Atom of string
  | List of t list

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
         | ' ' | '\t' | '\n' | '(' | ')' | '"' | ';' | '\\' -> true
         | _ -> false)
       s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
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
  Buffer.add_char buf '"';
  Buffer.contents buf

(* The pretty layout: an item of a list opened at [depth] that is
   itself a list starts a new line indented [depth + 1] (long lists
   break across lines for readable diffs); any other item follows a
   space; the first follows the paren.  [depth] < 0 prints flat. *)
let separator buf ~depth ~first ~list =
  if not first then
    if list && depth >= 0 then begin
      Buffer.add_char buf '\n';
      for _ = 0 to depth do Buffer.add_char buf ' ' done
    end
    else Buffer.add_char buf ' '

let rec to_buffer buf indent = function
  | Atom s -> Buffer.add_string buf (if must_quote s then escape s else s)
  | List items ->
    Buffer.add_char buf '(';
    List.iteri (fun i item -> add_item buf ~depth:indent ~first:(i = 0) item) items;
    Buffer.add_char buf ')'

and add_item buf ~depth ~first item =
  separator buf ~depth ~first ~list:(match item with List _ -> true | Atom _ -> false);
  to_buffer buf (if depth >= 0 then depth + 1 else depth) item

let to_string ?(pretty = true) sexp =
  let buf = Buffer.create 1024 in
  to_buffer buf (if pretty then 0 else -1) sexp;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Far deeper than anything the codecs, checkpoints or journal write
   (a few dozen levels); the bound stops a hostile input from growing
   the reader's stack with its nesting. *)
let max_depth = 1000

(* One left-to-right scan by index: no option or closure per
   character, and an atom without escapes is one [String.sub]. *)
let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | ';' ->
        (* comment to end of line *)
        while !pos < n && text.[!pos] <> '\n' do
          incr pos
        done;
        skip_ws ()
      | _ -> ()
  in
  let rec plain i =
    if i < n && text.[i] <> '"' && text.[i] <> '\\' then plain (i + 1) else i
  in
  let quoted_atom () =
    incr pos;
    let start = !pos in
    let stop = plain start in
    if stop < n && text.[stop] = '"' then begin
      pos := stop + 1;
      Atom (String.sub text start (stop - start))
    end
    else begin
      let buf = Buffer.create (2 * (stop - start) + 16) in
      let rec go () =
        let stop = plain !pos in
        Buffer.add_substring buf text !pos (stop - !pos);
        pos := stop;
        if stop >= n then sexp_errorf "unterminated string at %d" !pos
        else if text.[stop] = '"' then incr pos
        else begin
          pos := stop + 1;
          if !pos >= n then sexp_errorf "dangling escape";
          (match text.[!pos] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | c -> sexp_errorf "bad escape \\%c" c);
          incr pos;
          go ()
        end
      in
      go ();
      Atom (Buffer.contents buf)
    end
  in
  let bare_atom () =
    let start = !pos in
    let rec stop i =
      if i >= n then i
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> i
        | _ -> stop (i + 1)
    in
    pos := stop start;
    Atom (String.sub text start (!pos - start))
  in
  let rec expr depth =
    skip_ws ();
    if !pos >= n then sexp_errorf "unexpected end of input";
    match text.[!pos] with
    | '(' ->
      if depth >= max_depth then
        sexp_errorf "lists nested deeper than %d at %d" max_depth !pos;
      incr pos;
      let rec items acc =
        skip_ws ();
        if !pos >= n then sexp_errorf "unterminated list"
        else if text.[!pos] = ')' then begin
          incr pos;
          List (List.rev acc)
        end
        else items (expr (depth + 1) :: acc)
      in
      items []
    | '"' -> quoted_atom ()
    | ')' -> sexp_errorf "unexpected ')' at %d" !pos
    | _ -> bare_atom ()
  in
  let result = expr 0 in
  skip_ws ();
  if !pos <> n then sexp_errorf "trailing input at %d" !pos;
  result

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
  | List _ -> sexp_errorf "expected an atom"

let as_int sexp =
  match int_of_string_opt (as_atom sexp) with
  | Some i -> i
  | None -> sexp_errorf "expected an integer, got %S" (as_atom sexp)

let as_float sexp =
  match float_of_string_opt (as_atom sexp) with
  | Some f -> f
  | None -> sexp_errorf "expected a float, got %S" (as_atom sexp)

let as_bool sexp =
  match bool_of_string_opt (as_atom sexp) with
  | Some b -> b
  | None -> sexp_errorf "expected a bool, got %S" (as_atom sexp)

let as_list = function
  | List l -> l
  | Atom a -> sexp_errorf "expected a list, got atom %S" a

(* Access the payload of a [(name item...)] field inside a record. *)
let find_field fields name =
  let matches = function
    | List (Atom n :: rest) when n = name -> Some rest
    | List _ | Atom _ -> None
  in
  match List.find_map matches fields with
  | Some rest -> rest
  | None -> sexp_errorf "missing field %S" name

let find_field_opt fields name =
  let matches = function
    | List (Atom n :: rest) when n = name -> Some rest
    | List _ | Atom _ -> None
  in
  List.find_map matches fields

let one name = function
  | [ x ] -> x
  | _ -> sexp_errorf "field %S expects one item" name
