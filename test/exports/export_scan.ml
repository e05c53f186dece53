(* The export rule: every [val] a library interface declares is named
   by some file outside its own module, or is listed in the allowlist
   with a reason.

   The rule is textual and conservative.  A file "names" a value when
   the value's name occurs in it as a whole identifier token, wherever
   it occurs: in code, in a comment, as a record field or as a label.
   A name that some other file uses for something else therefore counts
   as used, so the check can miss a dead export but never reports a
   live one.  An unreported value that no other file names is either
   dead (its own [.ml] names it only where it defines it: "delete") or
   used only inside its module ("unexport").

   The same token index checks the docs: a backticked [Module.name]
   reference whose last component no source file names points at code
   that does not exist. *)

type verdict = Delete | Unexport

type finding = { mli : string; name : string; verdict : verdict }

let is_ident_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_ident_start c || c = '\'' || (c >= '0' && c <= '9')

(* Calls [f tok stop] on every identifier token of [s], [stop] being
   the index just past it.  A run of identifier characters that starts
   with a digit is a number, not a token. *)
let iter_tokens s f =
  let n = String.length s in
  let rec go i =
    if i < n then
      if is_ident_char s.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        if is_ident_start s.[i] then f (String.sub s i (!j - i)) !j;
        go !j
      end
      else go (i + 1)
  in
  go 0

let token_counts s =
  let tbl = Hashtbl.create 256 in
  iter_tokens s (fun tok _ ->
      let seen = Option.value ~default:0 (Hashtbl.find_opt tbl tok) in
      Hashtbl.replace tbl tok (seen + 1));
  tbl

(* [s] with its (nested) comments blanked out, so that a [val] in a doc
   comment is not taken for a declaration.  String literals outside
   comments are kept whole, so a ["(*"] in one opens nothing. *)
let strip_comments s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec code i =
    if i < n then
      if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then comment 1 (i + 2)
      else if s.[i] = '"' then begin
        Buffer.add_char b '"';
        str (i + 1)
      end
      else begin
        Buffer.add_char b s.[i];
        code (i + 1)
      end
  and str i =
    if i < n then begin
      Buffer.add_char b s.[i];
      if s.[i] = '\\' && i + 1 < n then begin
        Buffer.add_char b s.[i + 1];
        str (i + 2)
      end
      else if s.[i] = '"' then code (i + 1)
      else str (i + 1)
    end
  and comment depth i =
    if i < n then
      if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
        comment (depth + 1) (i + 2)
      else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then begin
        Buffer.add_char b ' ';
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      end
      else begin
        if s.[i] = '\n' then Buffer.add_char b '\n';
        comment depth (i + 1)
      end
  in
  code 0;
  Buffer.contents b

(* The names an interface declares with [val] or [external] (the
   identifier right after the keyword), sorted, each once: a name
   declared at top level and in a sub-signature is one name.  Operators
   ([val ( ** ) : ...]) have no token to look for and are skipped. *)
let declared_values mli_text =
  let s = strip_comments mli_text in
  let n = String.length s in
  let names = ref [] in
  iter_tokens s (fun tok stop ->
      if tok = "val" || tok = "external" then begin
        let i = ref stop in
        while !i < n && String.contains " \n\t" s.[!i] do incr i done;
        let j = ref !i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        if !j > !i && (s.[!i] = '_' || (s.[!i] >= 'a' && s.[!i] <= 'z')) then
          names := String.sub s !i (!j - !i) :: !names
      end);
  List.sort_uniq compare !names

let is_lib_mli path =
  Filename.check_suffix path ".mli"
  && match String.split_on_char '/' path with
     | [ "lib"; _; _ ] -> true
     | _ -> false

(* [files] are [(path, contents)] pairs with paths relative to the repo
   root ("lib/obs/obs.mli", "perfbench/replay.ml", ...); [allow] holds
   allowlist keys ("lib/obs/obs.mli value").  Returns the findings in
   file order, by name within a file. *)
let scan ~files ~allow =
  let counts =
    List.map (fun (path, text) -> (path, token_counts text)) files
  in
  let holders = Hashtbl.create 4096 in
  List.iter
    (fun (path, tbl) ->
      Hashtbl.iter (fun tok _ -> Hashtbl.add holders tok path) tbl)
    counts;
  let findings = ref [] in
  List.iter
    (fun (mli, text) ->
      if is_lib_mli mli then begin
        let ml = Filename.chop_suffix mli ".mli" ^ ".ml" in
        let own p = p = mli || p = ml in
        List.iter
          (fun name ->
            let named_elsewhere =
              List.exists (fun p -> not (own p)) (Hashtbl.find_all holders name)
            in
            let allowed = List.mem (mli ^ " " ^ name) allow in
            if not (named_elsewhere || allowed) then begin
              let uses_in_ml =
                match List.assoc_opt ml counts with
                | Some tbl -> Option.value ~default:0 (Hashtbl.find_opt tbl name)
                | None -> 0
              in
              let verdict = if uses_in_ml >= 2 then Unexport else Delete in
              findings := { mli; name; verdict } :: !findings
            end)
          (declared_values text)
      end)
    files;
  List.rev !findings

(* The backticked spans of a markdown text, outside fenced code blocks,
   that are exactly a dotted path starting with a module name:
   [`Cement.seal`], not [`a.b`] nor [`Store.put s x`]. *)
let module_refs md =
  let whole_ident s =
    s <> "" && is_ident_start s.[0] && String.for_all is_ident_char s
  in
  let looks_like_ref span =
    match String.split_on_char '.' span with
    | m :: (_ :: _ as rest) ->
        whole_ident m && m.[0] >= 'A' && m.[0] <= 'Z'
        && List.for_all whole_ident rest
    | _ -> false
  in
  let in_fence = ref false in
  List.concat_map
    (fun line ->
      if String.starts_with ~prefix:"```" (String.trim line) then begin
        in_fence := not !in_fence;
        []
      end
      else if !in_fence then []
      else
        (* pieces at odd positions, short of the last, are the insides
           of backtick pairs *)
        let pieces = String.split_on_char '`' line in
        let last = List.length pieces - 1 in
        List.filteri
          (fun i span -> i mod 2 = 1 && i < last && looks_like_ref span)
          pieces)
    (String.split_on_char '\n' md)

(* The [Module.name] references of [docs] (name, markdown pairs) whose
   last component no file of [files] names, as (doc, reference). *)
let stale_doc_refs ~files ~docs =
  let known = Hashtbl.create 4096 in
  List.iter
    (fun (_, text) -> iter_tokens text (fun tok _ -> Hashtbl.replace known tok ()))
    files;
  List.concat_map
    (fun (doc, md) ->
      List.sort_uniq compare (module_refs md)
      |> List.filter (fun r ->
             let last = List.hd (List.rev (String.split_on_char '.' r)) in
             not (Hashtbl.mem known last))
      |> List.map (fun r -> (doc, r)))
    docs

(* The durability rule: under [lib/], only the disk layer ([lib/disk/])
   calls the syscalls that make a file durable or cut it, so every
   fsync and truncation follows its one policy.  Returns each such call
   elsewhere under [lib/], comments aside, as (path, call) in file
   order. *)
let durability_calls = [ "fsync"; "ftruncate"; "truncate" ]

let stray_durability_calls ~files =
  List.concat_map
    (fun (path, text) ->
      if
        (not (String.starts_with ~prefix:"lib/" path))
        || String.starts_with ~prefix:"lib/disk/" path
      then []
      else begin
        let s = strip_comments text in
        let n = String.length s in
        let found = ref [] in
        iter_tokens s (fun tok stop ->
            if tok = "Unix" && stop < n && s.[stop] = '.' then begin
              let j = ref (stop + 1) in
              while !j < n && is_ident_char s.[!j] do incr j done;
              let name = String.sub s (stop + 1) (!j - stop - 1) in
              if List.mem name durability_calls then
                found := (path, "Unix." ^ name) :: !found
            end);
        List.rev !found
      end)
    files

(* Allowlist lines are "<lib/dir/file.mli> <value> <reason ...>";
   blank lines and lines starting with '#' are ignored.  Returns the
   keys, or the lines that lack a reason. *)
let parse_allowlist text =
  let entries, bad =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | mli :: name :: _ :: _ -> Some (Ok (mli ^ " " ^ name))
             | _ -> Some (Error line))
    |> List.partition_map (function Ok k -> Left k | Error l -> Right l)
  in
  if bad = [] then Ok entries else Error bad
