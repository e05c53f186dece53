(* Reference copies of two checkers as they stood before their
   rewrites, kept only as oracles: [Netlist.validate] over string maps
   and sets, and [Sexp.skip]/[check] stepping a cursor token by token.
   test_oracle.ml compares the library's checkers against them, verdict
   and message. *)

module Validate = struct
  open Ddf.Eda.Netlist
  module String_map = Map.Make (String)
  module String_set = Set.Make (String)

  let netlist_errorf fmt = Format.kasprintf (fun s -> raise (Netlist_error s)) fmt

  let driver_table nl =
    List.fold_left
      (fun acc g ->
        if String_map.mem g.output acc then
          netlist_errorf "net %s has several drivers" g.output
        else String_map.add g.output g acc)
      String_map.empty nl.gates

  let flop_outputs nl = List.map (fun f -> f.q) nl.flops

  let validate nl =
    if nl.name = "" then netlist_errorf "netlist name must be non-empty";
    let drivers = driver_table nl in
    let pi = String_set.of_list nl.primary_inputs in
    let flop_q = String_set.of_list (flop_outputs nl) in
    if String_set.cardinal flop_q <> List.length nl.flops then
      netlist_errorf "two flops drive the same net";
    String_set.iter
      (fun q ->
        if String_map.mem q drivers then
          netlist_errorf "flop output %s is also driven by a gate" q;
        if String_set.mem q pi then
          netlist_errorf "flop output %s is a primary input" q)
      flop_q;
    let driven n =
      String_set.mem n pi || String_map.mem n drivers || String_set.mem n flop_q
    in
    List.iter
      (fun f ->
        if not (driven f.d) then
          netlist_errorf "flop %s data input %s is undriven" f.fname f.d)
      nl.flops;
    if String_set.cardinal pi <> List.length nl.primary_inputs then
      netlist_errorf "duplicate primary input";
    String_set.iter
      (fun n ->
        if String_map.mem n drivers then
          netlist_errorf "primary input %s is driven by a gate" n)
      pi;
    let gate_names = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.add gate_names f.fname ()) nl.flops;
    (* never true: [Hashtbl.length] counts every binding [add] made *)
    if Hashtbl.length gate_names <> List.length nl.flops then
      netlist_errorf "duplicate flop name";
    let flop_q = String_set.of_list (flop_outputs nl) in
    List.iter
      (fun g ->
        if Hashtbl.mem gate_names g.gname then
          netlist_errorf "duplicate gate name %s" g.gname;
        Hashtbl.add gate_names g.gname ();
        List.iter
          (fun i ->
            if
              (not (String_set.mem i pi))
              && (not (String_map.mem i drivers))
              && not (String_set.mem i flop_q)
            then netlist_errorf "gate %s input %s is undriven" g.gname i)
          g.inputs)
      nl.gates;
    List.iter
      (fun o ->
        if
          (not (String_map.mem o drivers))
          && (not (String_set.mem o pi))
          && not (String_set.mem o flop_q)
        then netlist_errorf "primary output %s is undriven" o)
      nl.primary_outputs
end

module Skip = struct
  exception Sexp_error = Ddf.Sexp.Sexp_error

  let sexp_errorf fmt = Format.kasprintf (fun s -> raise (Sexp_error s)) fmt
  let max_depth = 1000

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

  let rec quoted_end text len i =
    let stop = plain_end text len i in
    if stop >= len then sexp_errorf "unterminated string at %d" stop
    else if String.unsafe_get text stop = '"' then stop + 1
    else if stop + 1 >= len then sexp_errorf "dangling escape"
    else begin
      ignore (unescape (String.unsafe_get text (stop + 1)) : char);
      quoted_end text len (stop + 2)
    end

  let skip_atom c =
    c.pos <-
      (if String.unsafe_get c.text c.pos = '"' then quoted_end c.text c.len (c.pos + 1)
       else bare_end c.text c.len c.pos)

  let skip c =
    match peek c with
    | End -> sexp_errorf "unexpected end of input"
    | Close -> sexp_errorf "unexpected ')' at %d" c.pos
    | Word -> skip_atom c
    | Open ->
      let outer = c.depth in
      enter c;
      while c.depth > outer do
        match peek c with
        | Open -> enter c
        | Close -> leave c
        | Word -> skip_atom c
        | End -> sexp_errorf "unterminated list"
      done

  let finish c =
    if peek c <> End then sexp_errorf "trailing input at %d" c.pos

  let check text =
    let c = cursor text in
    skip c;
    finish c
end
