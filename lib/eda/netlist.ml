(* Gate-level netlists: the central design-data type of the substrate.

   A netlist is combinational: primary inputs drive a DAG of gates.
   Gates carry a drive strength so the statistical optimizers have a
   real design space, and the timing model a real knob. *)

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type gate = {
  gname : string;
  op : Logic.gate_op;
  inputs : string list;
  output : string;
  drive : int;  (* 1, 2 or 4 *)
}

(* A D flip-flop: [q] takes the value of [d] at each clock edge (one
   edge per stimulus vector; the clock itself is implicit). *)
type flop = {
  fname : string;
  d : string;
  q : string;
  init : Logic.value;
}

type t = {
  name : string;
  primary_inputs : string list;
  primary_outputs : string list;
  gates : gate list;
  flops : flop list;
}

exception Netlist_error of string

let netlist_errorf fmt = Format.kasprintf (fun s -> raise (Netlist_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Construction and validation                                         *)
(* ------------------------------------------------------------------ *)

let gate ?(drive = 1) gname op inputs output =
  if not (Logic.arity_ok op (List.length inputs)) then
    netlist_errorf "gate %s: bad arity for %s" gname (Logic.op_name op);
  if not (List.mem drive [ 1; 2; 4 ]) then
    netlist_errorf "gate %s: drive must be 1, 2 or 4" gname;
  { gname; op; inputs; output; drive }

let flop ?(init = Logic.V0) fname ~d ~q = { fname; d; q; init }

let is_sequential nl = nl.flops <> []

let driver_table nl =
  List.fold_left
    (fun acc g ->
      if String_map.mem g.output acc then
        netlist_errorf "net %s has several drivers" g.output
      else String_map.add g.output g acc)
    String_map.empty nl.gates

let flop_outputs nl = List.map (fun f -> f.q) nl.flops

let nets nl =
  let add acc n = String_set.add n acc in
  let acc = List.fold_left add String_set.empty nl.primary_inputs in
  let acc =
    List.fold_left
      (fun acc g -> List.fold_left add (add acc g.output) g.inputs)
      acc nl.gates
  in
  let acc =
    List.fold_left (fun acc f -> add (add acc f.d) f.q) acc nl.flops
  in
  String_set.elements acc

let validate nl =
  if nl.name = "" then netlist_errorf "netlist name must be non-empty";
  let drivers = driver_table nl in
  let pi = String_set.of_list nl.primary_inputs in
  (* flop outputs are sources for the combinational network but must
     not collide with gate drivers or primary inputs *)
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

let create ?(flops = []) ~name ~primary_inputs ~primary_outputs gates =
  let nl = { name; primary_inputs; primary_outputs; gates; flops } in
  validate nl;
  nl

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let gate_count nl = List.length nl.gates
let net_count nl = List.length (nets nl)

let transistor_count nl =
  List.fold_left
    (fun acc g -> acc + Logic.transistor_count g.op (List.length g.inputs))
    0 nl.gates

(* ------------------------------------------------------------------ *)
(* Integer net ids                                                     *)
(* ------------------------------------------------------------------ *)

(* The netlist numbered once, for the passes that visit every net per
   call (event simulation, static timing, power).  Net ids run in
   first-seen order over primary inputs, gate inputs and outputs,
   primary outputs and flop nets; a gate's id is its list position. *)
type indexed = {
  source : t;
  ids : (string, int) Hashtbl.t;
  names : string array;            (* by net id *)
  gate : gate array;               (* by gate id *)
  gate_inputs : int array array;   (* by gate *)
  gate_output : int array;         (* by gate *)
  fanout : int array;              (* by net: readers, outputs count one *)
  outputs : int array;             (* primary outputs, in order *)
}

let index nl =
  let ids = Hashtbl.create 64 in
  let id net =
    match Hashtbl.find ids net with
    | i -> i
    | exception Not_found ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids net i;
      i
  in
  let ids_of nets = Array.of_list (List.map id nets) in
  List.iter (fun net -> ignore (id net)) nl.primary_inputs;
  let gate = Array.of_list nl.gates in
  let gate_inputs = Array.map (fun g -> ids_of g.inputs) gate in
  let gate_output = Array.map (fun g -> id g.output) gate in
  let outputs = ids_of nl.primary_outputs in
  List.iter (fun f -> ignore (id f.d); ignore (id f.q)) nl.flops;
  let n = Hashtbl.length ids in
  let names = Array.make n "" in
  Hashtbl.iter (fun net i -> names.(i) <- net) ids;
  let fanout = Array.make n 0 in
  let bump i = fanout.(i) <- fanout.(i) + 1 in
  Array.iter (Array.iter bump) gate_inputs;
  Array.iter bump outputs;
  { source = nl; ids; names; gate; gate_inputs; gate_output; fanout; outputs }

(* Gate ids in topological order, by logic level and then list
   position, with each gate's level.  Raises on several drivers of a
   net, a combinational cycle or an undriven net, naming the first one
   a depth-first walk from the gates in list order meets. *)
let levelized ix =
  let n = Array.length ix.names in
  let driver = Array.make n (-1) in
  Array.iteri
    (fun g o ->
      if driver.(o) >= 0 then
        netlist_errorf "net %s has several drivers" ix.names.(o);
      driver.(o) <- g)
    ix.gate_output;
  let level = Array.make n (-1) in
  let source net = level.(Hashtbl.find ix.ids net) <- 0 in
  List.iter source ix.source.primary_inputs;
  List.iter (fun f -> source f.q) ix.source.flops;
  let visiting = Bytes.make n '\000' in
  let rec net_level i =
    if level.(i) >= 0 then level.(i)
    else begin
      if Bytes.get visiting i <> '\000' then
        netlist_errorf "combinational cycle through net %s" ix.names.(i);
      let g = driver.(i) in
      if g < 0 then netlist_errorf "undriven net %s" ix.names.(i);
      Bytes.set visiting i '\001';
      let ins = ix.gate_inputs.(g) in
      let l = ref 0 in
      for k = 0 to Array.length ins - 1 do
        l := max !l (net_level ins.(k))
      done;
      Bytes.set visiting i '\000';
      level.(i) <- 1 + !l;
      1 + !l
    end
  in
  let gate_level = Array.map net_level ix.gate_output in
  (* a stable counting sort by level *)
  let top = Array.fold_left max 0 gate_level in
  let start = Array.make (top + 2) 0 in
  Array.iter (fun l -> start.(l + 1) <- start.(l + 1) + 1) gate_level;
  for l = 1 to top + 1 do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  let order = Array.make (Array.length gate_level) 0 in
  Array.iteri
    (fun g l ->
      order.(start.(l)) <- g;
      start.(l) <- start.(l) + 1)
    gate_level;
  (order, gate_level)

let depth nl =
  let _, level = levelized (index nl) in
  Array.fold_left max 0 level

(* Flop state: current q values, by flop name. *)
type state = (string * Logic.value) list

let initial_state nl = List.map (fun f -> (f.fname, f.init)) nl.flops

(* One combinational settle: all net values under the inputs and the
   current state, by net id; a net no input, flop or gate sets reads X. *)
let settle nl state env =
  let ix = index nl in
  let order, _ = levelized ix in
  let values = Array.make (Array.length ix.names) Logic.VX in
  let set net v = values.(Hashtbl.find ix.ids net) <- v in
  List.iter
    (fun n -> set n (try List.assoc n env with Not_found -> Logic.VX))
    nl.primary_inputs;
  List.iter
    (fun f -> set f.q (try List.assoc f.fname state with Not_found -> f.init))
    nl.flops;
  Array.iter
    (fun g ->
      let ins = Array.to_list (Array.map (Array.get values) ix.gate_inputs.(g)) in
      values.(ix.gate_output.(g)) <- Logic.eval ix.gate.(g).op ins)
    order;
  fun net ->
    match Hashtbl.find_opt ix.ids net with
    | Some i -> values.(i)
    | None -> Logic.VX

(* Zero-delay functional evaluation of the outputs; sequential
   netlists read their flops from [state] (initial values by default). *)
let eval ?state nl env =
  let state = match state with Some s -> s | None -> initial_state nl in
  let value = settle nl state env in
  List.map (fun o -> (o, value o)) nl.primary_outputs

(* One clock cycle: settle, capture d into every flop, return the new
   state and the settled outputs. *)
let step nl state env =
  let value = settle nl state env in
  let state' = List.map (fun f -> (f.fname, value f.d)) nl.flops in
  (state', List.map (fun o -> (o, value o)) nl.primary_outputs)

(* Run a vector sequence through the clocked semantics. *)
let run_cycles nl env_list =
  let rec go state acc = function
    | [] -> List.rev acc
    | env :: rest ->
      let state', outs = step nl state env in
      go state' (outs :: acc) rest
  in
  go (initial_state nl) [] env_list

(* ------------------------------------------------------------------ *)
(* Editing primitives (used by the netlist editor tool)                *)
(* ------------------------------------------------------------------ *)

let rename nl name = { nl with name }

let add_gate nl g =
  let nl = { nl with gates = nl.gates @ [ g ] } in
  validate nl;
  nl

let remove_gate nl gname =
  if not (List.exists (fun g -> g.gname = gname) nl.gates) then
    netlist_errorf "no gate named %s" gname;
  let nl = { nl with gates = List.filter (fun g -> g.gname <> gname) nl.gates } in
  validate nl;
  nl

let set_drive nl gname drive =
  if not (List.mem drive [ 1; 2; 4 ]) then
    netlist_errorf "drive must be 1, 2 or 4";
  let found = ref false in
  let gates =
    List.map
      (fun g ->
        if g.gname = gname then begin
          found := true;
          { g with drive }
        end
        else g)
      nl.gates
  in
  if not !found then netlist_errorf "no gate named %s" gname;
  { nl with gates }

let find_gate nl gname = List.find_opt (fun g -> g.gname = gname) nl.gates

(* ------------------------------------------------------------------ *)
(* Structural hash (content addressing for the design-object store)    *)
(* ------------------------------------------------------------------ *)

(* Written piece by piece into one buffer (no Printf, no per-gate
   strings): "name|pi:a,b|po:y" then "|g:op(a,b)->y@drive" per gate
   and "|f:dff(d)->q=init" per flop, each sorted by name.  These bytes
   are what content hashes are computed over: never change them. *)
let to_canonical_string nl =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let add_names = function
    | [] -> ()
    | n :: rest ->
      add n;
      List.iter
        (fun n ->
          Buffer.add_char buf ',';
          add n)
        rest
  in
  add nl.name;
  add "|pi:";
  add_names nl.primary_inputs;
  add "|po:";
  add_names nl.primary_outputs;
  List.iter
    (fun g ->
      Buffer.add_char buf '|';
      add g.gname;
      Buffer.add_char buf ':';
      add (Logic.op_name g.op);
      Buffer.add_char buf '(';
      add_names g.inputs;
      add ")->";
      add g.output;
      Buffer.add_char buf '@';
      if g.drive >= 0 && g.drive <= 9 then
        Buffer.add_char buf (Char.unsafe_chr (48 + g.drive))
      else add (Int.to_string g.drive))
    (List.sort (fun a b -> String.compare a.gname b.gname) nl.gates);
  List.iter
    (fun f ->
      Buffer.add_char buf '|';
      add f.fname;
      add ":dff(";
      add f.d;
      add ")->";
      add f.q;
      Buffer.add_char buf '=';
      add (Logic.value_name f.init))
    (List.sort (fun a b -> String.compare a.fname b.fname) nl.flops);
  Buffer.contents buf

let hash nl = Digest.to_hex (Digest.string (to_canonical_string nl))

let equal a b = String.equal (to_canonical_string a) (to_canonical_string b)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp ppf nl =
  Fmt.pf ppf "@[<v>netlist %s (%d gates, depth %d)@,inputs: %s@,outputs: %s@,%a@]"
    nl.name (gate_count nl) (depth nl)
    (String.concat " " nl.primary_inputs)
    (String.concat " " nl.primary_outputs)
    (Fmt.list ~sep:Fmt.cut (fun ppf g ->
         Fmt.pf ppf "%s = %s(%s) [x%d]" g.output (Logic.op_name g.op)
           (String.concat ", " g.inputs) g.drive))
    nl.gates;
  if nl.flops <> [] then
    Fmt.pf ppf "@,%a"
      (Fmt.list ~sep:Fmt.cut (fun ppf f ->
           Fmt.pf ppf "%s = dff(%s) init %s" f.q f.d
             (Logic.value_name f.init)))
      nl.flops
