(* The transistor-level view of a circuit (Fig. 7).

   Gates are first decomposed into inverting CMOS primitives (NOT,
   NAND, NOR), each of which expands into a complementary stage of
   devices.  Evaluation is genuine switch-level simulation: per stage,
   conducting paths through the pull-up and pull-down channel graphs
   decide the output, with X handled via strong/possible path analysis,
   so a logic-vs-transistor correspondence check exercises a different
   computational model than gate evaluation. *)

type device_type =
  | Nmos
  | Pmos

type device = {
  dname : string;
  dtype : device_type;
  gate_net : string;
  source : string;
  drain : string;
}

type stage = {
  out : string;
  devices : device list;
}

type t = {
  tname : string;
  inputs : string list;
  outputs : string list;
  stages : stage list;  (* in topological order of construction *)
}

exception Transistor_error of string

let vdd = "vdd!"
let gnd = "gnd!"

(* ------------------------------------------------------------------ *)
(* Decomposition into inverting primitives                             *)
(* ------------------------------------------------------------------ *)

type prim =
  | Pnot of string * string                  (* in, out *)
  | Pnand of string list * string
  | Pnor of string list * string

let decompose_gate fresh (g : Netlist.gate) =
  let out = g.Netlist.output in
  match (g.Netlist.op, g.Netlist.inputs) with
  | Logic.Not, [ a ] -> [ Pnot (a, out) ]
  | Logic.Buf, [ a ] ->
    let t = fresh () in
    [ Pnot (a, t); Pnot (t, out) ]
  | Logic.Nand, ins -> [ Pnand (ins, out) ]
  | Logic.Nor, ins -> [ Pnor (ins, out) ]
  | Logic.And, ins ->
    let t = fresh () in
    [ Pnand (ins, t); Pnot (t, out) ]
  | Logic.Or, ins ->
    let t = fresh () in
    [ Pnor (ins, t); Pnot (t, out) ]
  | Logic.Xor, ins | Logic.Xnor, ins ->
    (* fold binary XOR built from four NANDs:
       m = nand(a,b); x = nand(nand(a,m), nand(b,m)) *)
    let xor2 a b o =
      let m = fresh () and p = fresh () and q = fresh () in
      [ Pnand ([ a; b ], m); Pnand ([ a; m ], p); Pnand ([ b; m ], q);
        Pnand ([ p; q ], o) ]
    in
    let rec fold acc current = function
      | [] -> (acc, current)
      | b :: rest ->
        let o = if rest = [] && g.Netlist.op = Logic.Xor then out else fresh () in
        let acc = acc @ xor2 current b o in
        fold acc o rest
    in
    (match ins with
    | a :: b :: rest ->
      let acc, last = fold [] a (b :: rest) in
      if g.Netlist.op = Logic.Xor then acc
      else acc @ [ Pnot (last, out) ]
    | [ _ ] | [] -> raise (Transistor_error "xor arity"))
  | (Logic.Not | Logic.Buf), _ -> raise (Transistor_error "unary arity")

(* ------------------------------------------------------------------ *)
(* CMOS expansion of primitives                                        *)
(* ------------------------------------------------------------------ *)

let expand_prim fresh_node counter prim =
  let dev dtype gate_net source drain =
    incr counter;
    { dname = Printf.sprintf "m%d" !counter; dtype; gate_net; source; drain }
  in
  match prim with
  | Pnot (a, out) ->
    { out; devices = [ dev Pmos a vdd out; dev Nmos a out gnd ] }
  | Pnand (ins, out) ->
    (* parallel PMOS pull-up, series NMOS pull-down *)
    let pull_up = List.map (fun a -> dev Pmos a vdd out) ins in
    let rec series node = function
      | [] -> []
      | [ a ] -> [ dev Nmos a node gnd ]
      | a :: rest ->
        let mid = fresh_node () in
        dev Nmos a node mid :: series mid rest
    in
    { out; devices = pull_up @ series out ins }
  | Pnor (ins, out) ->
    (* series PMOS pull-up, parallel NMOS pull-down *)
    let rec series node = function
      | [] -> []
      | [ a ] -> [ dev Pmos a node out ]
      | a :: rest ->
        let mid = fresh_node () in
        dev Pmos a node mid :: series mid rest
    in
    let pull_down = List.map (fun a -> dev Nmos a out gnd) ins in
    { out; devices = series vdd ins @ pull_down }

let of_netlist nl =
  if Netlist.is_sequential nl then
    raise (Transistor_error "transistor expansion is combinational-only");
  let tmp = ref 0 in
  let fresh () =
    incr tmp;
    Printf.sprintf "tn%d" !tmp
  in
  let node = ref 0 in
  let fresh_node () =
    incr node;
    Printf.sprintf "ch%d" !node
  in
  let counter = ref 0 in
  let ix = Netlist.index nl in
  let order, _ = Netlist.levelized ix in
  let stages =
    Array.to_list order
    |> List.concat_map (fun g -> decompose_gate fresh ix.Netlist.gate.(g))
    |> List.map (expand_prim fresh_node counter)
  in
  {
    tname = nl.Netlist.name ^ "_xtor";
    inputs = nl.Netlist.primary_inputs;
    outputs = nl.Netlist.primary_outputs;
    stages;
  }

let device_count t =
  List.fold_left (fun acc s -> acc + List.length s.devices) 0 t.stages

(* ------------------------------------------------------------------ *)
(* Switch-level evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* Conduction of one device under known gate values.  [`On] definitely
   conducts, [`Off] definitely not, [`Maybe] unknown gate. *)
let conduction value d =
  match (d.dtype, value d.gate_net) with
  | Nmos, Logic.V1 | Pmos, Logic.V0 -> `On
  | Nmos, Logic.V0 | Pmos, Logic.V1 -> `Off
  | (Nmos | Pmos), Logic.VX -> `Maybe

(* Is there a path from [src] to [dst] through devices whose
   conduction is accepted by [admit]? *)
let path_exists devices ~admit ~src ~dst value =
  let adj = Hashtbl.create 16 in
  let add a b = Hashtbl.add adj a b in
  List.iter
    (fun d ->
      if admit (conduction value d) then begin
        add d.source d.drain;
        add d.drain d.source
      end)
    devices;
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> false
    | n :: rest ->
      if n = dst then true
      else if Hashtbl.mem seen n then go rest
      else begin
        Hashtbl.add seen n ();
        go (Hashtbl.find_all adj n @ rest)
      end
  in
  go [ src ]

let eval_stage value stage =
  let strong admit_x c = match c with `On -> true | `Maybe -> admit_x | `Off -> false in
  let strong_up =
    path_exists stage.devices ~admit:(strong false) ~src:vdd ~dst:stage.out value
  in
  let strong_down =
    path_exists stage.devices ~admit:(strong false) ~src:gnd ~dst:stage.out value
  in
  let possible_up =
    path_exists stage.devices ~admit:(strong true) ~src:vdd ~dst:stage.out value
  in
  let possible_down =
    path_exists stage.devices ~admit:(strong true) ~src:gnd ~dst:stage.out value
  in
  match (strong_up, strong_down, possible_up, possible_down) with
  | true, true, _, _ -> Logic.VX  (* short: complementary nets fought *)
  | true, false, _, false -> Logic.V1
  | false, true, false, _ -> Logic.V0
  | _, _, _, _ -> Logic.VX

let eval t env =
  let values = Hashtbl.create 64 in
  Hashtbl.replace values vdd Logic.V1;
  Hashtbl.replace values gnd Logic.V0;
  List.iter
    (fun n ->
      let v = try List.assoc n env with Not_found -> Logic.VX in
      Hashtbl.replace values n v)
    t.inputs;
  let value n = try Hashtbl.find values n with Not_found -> Logic.VX in
  List.iter
    (fun stage -> Hashtbl.replace values stage.out (eval_stage value stage))
    t.stages;
  List.map (fun o -> (o, value o)) t.outputs

(* ------------------------------------------------------------------ *)
(* Correspondence with the logic view                                  *)
(* ------------------------------------------------------------------ *)

(* Exhaustive for small circuits, random sampling above. *)
let corresponds ?(samples = 256) nl t rng =
  let n = List.length nl.Netlist.primary_inputs in
  let vectors =
    if n <= 10 then Stimuli.vectors (Stimuli.exhaustive nl.Netlist.primary_inputs)
    else
      Stimuli.vectors
        (Stimuli.random ~inputs:nl.Netlist.primary_inputs ~n:samples rng)
  in
  List.for_all
    (fun vec -> Netlist.eval nl vec = eval t vec)
    vectors

let hash t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf t.tname;
  List.iter
    (fun s ->
      Buffer.add_string buf ("|" ^ s.out);
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf ";%s:%s:%s:%s:%s" d.dname
               (match d.dtype with Nmos -> "n" | Pmos -> "p")
               d.gate_net d.source d.drain))
        s.devices)
    t.stages;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp ppf t =
  Fmt.pf ppf "transistor view %s: %d devices in %d stages" t.tname
    (device_count t) (List.length t.stages)
