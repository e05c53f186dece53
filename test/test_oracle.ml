(* The rewritten checkers against reference copies of their former
   selves (reference_checkers.ml): [Netlist.validate] on random
   netlists with injected faults, and [Sexp.check]/[skip] on mutated
   s-expression texts.  Both must agree on the verdict and, for a
   refusal, on the message, offsets included. *)

open Ddf
module N = Eda.Netlist
module Ref = Reference_checkers

let outcome f x =
  match f x with
  | () -> "ok"
  | exception N.Netlist_error m -> "netlist error: " ^ m
  | exception Sexp.Sexp_error m -> "sexp error: " ^ m

(* ------------------------------------------------------------------ *)
(* Netlists                                                            *)
(* ------------------------------------------------------------------ *)

type fault =
  | Empty_name
  | Several_drivers
  | Dup_flop_q
  | Flop_q_gate
  | Flop_q_input
  | Flop_d_undriven
  | Dup_input
  | Input_driven
  | Dup_flop_name
  | Dup_gate_name
  | Gate_input_undriven
  | Output_undriven

let faults =
  [ Empty_name; Several_drivers; Dup_flop_q; Flop_q_gate; Flop_q_input;
    Flop_d_undriven; Dup_input; Input_driven; Dup_flop_name; Dup_gate_name;
    Gate_input_undriven; Output_undriven ]

let fault_name = function
  | Empty_name -> "empty name"
  | Several_drivers -> "several drivers"
  | Dup_flop_q -> "two flops on a net"
  | Flop_q_gate -> "flop output driven by a gate"
  | Flop_q_input -> "flop output is an input"
  | Flop_d_undriven -> "flop data undriven"
  | Dup_input -> "duplicate input"
  | Input_driven -> "input driven by a gate"
  | Dup_flop_name -> "duplicate flop name"
  | Dup_gate_name -> "duplicate gate name"
  | Gate_input_undriven -> "gate input undriven"
  | Output_undriven -> "output undriven"

let pick st = function
  | [] -> invalid_arg "pick"
  | l -> List.nth l (Random.State.int st (List.length l))

let insert st x l =
  let k = Random.State.int st (List.length l + 1) in
  List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)

let gate gname inputs output =
  { N.gname; op = Eda.Logic.Nand; inputs; output; drive = 1 }

let flop fname ~d ~q = { N.fname; d; q; init = Eda.Logic.V0 }

(* A valid netlist: gates read only nets driven before them. *)
let base st =
  let pis = List.init (1 + Random.State.int st 4) (Printf.sprintf "i%d") in
  let qs = List.init (Random.State.int st 3) (Printf.sprintf "q%d") in
  let driven = ref (pis @ qs) in
  let gates =
    List.init (Random.State.int st 8) (fun k ->
        let inputs = List.init (1 + Random.State.int st 3) (fun _ -> pick st !driven) in
        let output = Printf.sprintf "w%d" k in
        driven := output :: !driven;
        gate (Printf.sprintf "g%d" k) inputs output)
  in
  let flops =
    List.mapi (fun i q -> flop (Printf.sprintf "f%d" i) ~d:(pick st !driven) ~q) qs
  in
  { N.name = "nl"; primary_inputs = pis; gates; flops;
    primary_outputs = List.init (1 + Random.State.int st 3) (fun _ -> pick st !driven) }

(* Inject one fault at a random place; names the fault makes up carry
   a random number, so several offenders of a class sort differently
   from the order they were added in. *)
let inject st (nl : N.t) fault =
  let fresh p = Printf.sprintf "%s%d" p (Random.State.int st 1000) in
  let driven = nl.primary_inputs @ List.map (fun f -> f.N.q) nl.flops in
  let add_gate ?(name = fresh "gx") ?inputs output nl =
    let inputs = Option.value inputs ~default:[ pick st driven ] in
    { nl with N.gates = insert st (gate name inputs output) nl.N.gates }
  in
  let add_flop ?(name = fresh "fx") ?(d = pick st driven) q nl =
    { nl with N.flops = insert st (flop name ~d ~q) nl.N.flops }
  in
  let outputs = List.map (fun g -> g.N.output) nl.gates in
  match fault with
  | Empty_name -> { nl with name = "" }
  | Several_drivers ->
    if outputs = [] then
      let w = fresh "wd" in
      add_gate w (add_gate w nl)
    else add_gate (pick st outputs) nl
  | Dup_flop_q ->
    if nl.flops = [] then
      let q = fresh "qd" in
      add_flop q (add_flop q nl)
    else add_flop (pick st (List.map (fun f -> f.N.q) nl.flops)) nl
  | Flop_q_gate ->
    if outputs = [] then
      let w = fresh "wq" in
      add_flop w (add_gate w nl)
    else add_flop (pick st outputs) nl
  | Flop_q_input -> add_flop (pick st nl.primary_inputs) nl
  | Flop_d_undriven -> add_flop ~d:(fresh "u") (fresh "qx") nl
  | Dup_input ->
    { nl with primary_inputs = insert st (pick st nl.primary_inputs) nl.primary_inputs }
  | Input_driven -> add_gate (pick st nl.primary_inputs) nl
  | Dup_flop_name ->
    if nl.flops = [] then
      let f = fresh "fd" in
      add_flop ~name:f (fresh "qx") (add_flop ~name:f (fresh "qx") nl)
    else add_flop ~name:(pick st (List.map (fun f -> f.N.fname) nl.flops)) (fresh "qx") nl
  | Dup_gate_name ->
    let names =
      List.map (fun g -> g.N.gname) nl.gates @ List.map (fun f -> f.N.fname) nl.flops
    in
    if names = [] then
      let g = fresh "gd" in
      add_gate ~name:g (fresh "wx") (add_gate ~name:g (fresh "wx") nl)
    else add_gate ~name:(pick st names) (fresh "wx") nl
  | Gate_input_undriven ->
    add_gate ~inputs:[ pick st driven; fresh "u" ] (fresh "wx") nl
  | Output_undriven ->
    { nl with primary_outputs = insert st (fresh "u") nl.primary_outputs }

let faulty seed fs =
  let st = Random.State.make [| seed |] in
  List.fold_left (inject st) (base st) fs

let print_netlist (nl : N.t) =
  Printf.sprintf "%S in(%s) out(%s) gates[%s] flops[%s]" nl.name
    (String.concat " " nl.primary_inputs)
    (String.concat " " nl.primary_outputs)
    (String.concat "; "
       (List.map
          (fun g ->
            Printf.sprintf "%s(%s)->%s" g.N.gname (String.concat "," g.N.inputs)
              g.N.output)
          nl.gates))
    (String.concat "; "
       (List.map (fun f -> Printf.sprintf "%s %s->%s" f.N.fname f.N.d f.N.q) nl.flops))

let gen_faulty =
  QCheck2.Gen.(
    pair (int_bound 1_000_000) (list_size (int_range 0 4) (oneofl faults))
    |> map (fun (seed, fs) -> (fs, faulty seed fs)))

(* What the reference says for each fault alone, on a netlist with a
   gate and a flop: the injection hits the check it means to. *)
let expected = function
  | Empty_name -> "netlist name must be non-empty"
  | Several_drivers -> "has several drivers"
  | Dup_flop_q -> "two flops drive the same net"
  | Flop_q_gate -> "is also driven by a gate"
  | Flop_q_input -> "is a primary input"
  | Flop_d_undriven -> "data input"
  | Dup_input -> "duplicate primary input"
  | Input_driven -> "is driven by a gate"
  | Dup_flop_name -> "ok"
  | Dup_gate_name -> "duplicate gate name"
  | Gate_input_undriven -> "is undriven"
  | Output_undriven -> "primary output"

let rec seed_with_gate_and_flop seed =
  let nl = faulty seed [] in
  if nl.gates <> [] && nl.flops <> [] then seed else seed_with_gate_and_flop (seed + 1)

let netlist_tests =
  [ Alcotest.test_case "every fault class is injected and named alike" `Quick
      (fun () ->
        let seed = seed_with_gate_and_flop 1 in
        Alcotest.(check string) "the base is valid" "ok"
          (outcome N.validate (faulty seed []));
        List.iter
          (fun f ->
            let nl = faulty seed [ f ] in
            let want = outcome Ref.Validate.validate nl in
            if not (Util.contains want (expected f)) then
              Alcotest.failf "%s: the reference says %S" (fault_name f) want;
            Alcotest.(check string) (fault_name f) want (outcome N.validate nl))
          faults);
    Util.qcheck ~count:2000 "validate agrees with the reference, message and all"
      ~print:(fun (fs, nl) ->
        String.concat ", " (List.map fault_name fs) ^ " / " ^ print_netlist nl)
      gen_faulty
      (fun (_, nl) -> outcome N.validate nl = outcome Ref.Validate.validate nl) ]

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

let atoms =
  [ "a"; "foo-bar"; "-12"; "0x1p+3"; {|""|}; {|"two words"|}; {|"esc\n\t\"\\"|};
    {|"(paren)"|}; {|";not a comment"|} ]

let spaces = [ " "; "  "; "\n"; "\t"; "\r\n"; " ; a comment\n"; ";c\n " ]

let gen_text =
  QCheck2.Gen.(
    let sp = oneofl spaces in
    let rec sexp depth =
      if depth = 0 then oneofl atoms
      else
        frequency
          [ (2, oneofl atoms);
            ( 3,
              let* items = list_size (int_range 0 4) (sexp (depth - 1)) in
              let* seps = list_repeat (List.length items + 1) sp in
              let body =
                String.concat ""
                  (List.concat (List.map2 (fun s i -> [ s; i ]) (List.tl seps) items))
              in
              return ("(" ^ List.hd seps ^ body ^ ")") ) ]
    in
    let* text = sexp 5 in
    let* lead = sp and* trail = sp in
    return (lead ^ text ^ trail))

(* A damage at a position given as a fraction of the text's length. *)
type damage = Delete of float | Insert of float * char | Cut of float

let gen_damage =
  QCheck2.Gen.(
    let at = float_bound_inclusive 1.0 in
    oneof
      [ map (fun f -> Delete f) at;
        map2 (fun f c -> Insert (f, c)) at
          (oneofl [ '('; ')'; '"'; '\\'; ';'; '\n'; ' '; 'x'; 'q' ]);
        map (fun f -> Cut f) at ])

let damage text d =
  let n = String.length text in
  let pos f = min n (int_of_float (f *. float_of_int n)) in
  match d with
  | Delete f when n > 0 ->
    let i = min (n - 1) (pos f) in
    String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | Delete _ -> text
  | Insert (f, c) ->
    let i = pos f in
    String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)
  | Cut f -> String.sub text 0 (pos f)

(* [skip] inside a list the cursor has entered, as a codec skips an
   unknown field, then the list's close and the end. *)
let nested_skip text =
  let c = Sexp.cursor ("(" ^ text ^ ")") in
  ignore (Sexp.peek c : Sexp.token);
  Sexp.enter c;
  Sexp.skip c;
  (match Sexp.peek c with Sexp.Close -> Sexp.leave c | _ -> ());
  Sexp.finish c

let ref_nested_skip text =
  let module S = Ref.Skip in
  let c = S.cursor ("(" ^ text ^ ")") in
  ignore (S.peek c : S.token);
  S.enter c;
  S.skip c;
  (match S.peek c with S.Close -> S.leave c | _ -> ());
  S.finish c

let agree text =
  outcome Sexp.check text = outcome Ref.Skip.check text
  && outcome nested_skip text = outcome ref_nested_skip text

let same_verdict text =
  Alcotest.(check string) (Printf.sprintf "check %S" text)
    (outcome Ref.Skip.check text) (outcome Sexp.check text);
  Alcotest.(check string) (Printf.sprintf "nested skip %S" text)
    (outcome ref_nested_skip text) (outcome nested_skip text)

let sexp_tests =
  [ Alcotest.test_case "escapes, comments and unterminated texts" `Quick (fun () ->
        List.iter same_verdict
          [ ""; " "; "; only a comment"; "a"; "a b"; "(a b) c"; ")"; "(a))"; "(";
            "(a (b)"; {|"abc|}; {|"abc\|}; {|"a\q"|}; {|"a\n\t\"\\"|}; {|(a "b\|};
            "(a ; comment ) here\n b)"; "(a;c\n)"; {|(a"b"c)|}; "((()))"; "()" ]);
    Alcotest.test_case "nesting at 999, 1,000 and 1,001 levels" `Quick (fun () ->
        List.iter
          (fun n ->
            same_verdict (String.make n '(' ^ String.make n ')');
            same_verdict (String.make n '(');
            same_verdict (String.make n '(' ^ "x" ^ String.make (n - 1) ')'))
          [ 999; 1000; 1001 ];
        Alcotest.(check string) "1,000 levels read" "ok"
          (outcome Sexp.check (String.make 1000 '(' ^ String.make 1000 ')'));
        Alcotest.(check string) "1,001 levels refused"
          "sexp error: lists nested deeper than 1000 at 1000"
          (outcome Sexp.check (String.make 1001 '(' ^ String.make 1001 ')')));
    Util.qcheck ~count:2000 "check and skip agree with the reference on damaged texts"
      ~print:(fun t -> Printf.sprintf "%S" t)
      QCheck2.Gen.(
        map2 (List.fold_left damage) gen_text (list_size (int_range 0 3) gen_damage))
      agree ]

let suite = [ ("oracle.netlist", netlist_tests); ("oracle.sexp", sexp_tests) ]
