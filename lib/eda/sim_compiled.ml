(* Levelized compiled-code simulation, in the manner of COSMOS
   (Bryant et al., DAC'87), the paper's Fig. 2 example of a tool
   created during design.

   [compile] turns a netlist into a flat instruction program over
   integer-indexed nets; [run] executes it per stimulus vector.  The
   compile step is the expensive part, after which each vector costs a
   single linear pass -- the crossover against the event-driven
   simulator is measured by experiment E2. *)

type instr = {
  op : Logic.gate_op;
  (* indices into the value array *)
  args : int array;
  dst : int;
}

type t = {
  source_name : string;
  source_hash : string;
  net_index : (string * int) list;
  n_nets : int;
  program : instr array;
  input_slots : (string * int) list;
  output_slots : (string * int) list;
  (* sequential designs: per flop, (d slot, q slot, initial value) *)
  flop_slots : (int * int * Logic.value) list;
}

exception Compile_error of string

let compile netlist =
  let index = Hashtbl.create 64 in
  let next = ref 0 in
  let slot net =
    match Hashtbl.find_opt index net with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      Hashtbl.add index net i;
      i
  in
  List.iter (fun n -> ignore (slot n)) netlist.Netlist.primary_inputs;
  List.iter
    (fun (f : Netlist.flop) -> ignore (slot f.Netlist.q))
    netlist.Netlist.flops;
  (* the index's gate order; the slots keep their own first-seen
     numbering, which a stored program's bytes record *)
  let ix = Netlist.index netlist in
  let order, _ = Netlist.levelized ix in
  let program =
    Array.map
      (fun gid ->
        let (g : Netlist.gate) = ix.Netlist.gate.(gid) in
        let args = Array.of_list (List.map slot g.inputs) in
        { op = g.op; args; dst = slot g.output })
      order
  in
  let net_index = Hashtbl.fold (fun n i acc -> (n, i) :: acc) index [] in
  let lookup net =
    match Hashtbl.find_opt index net with
    | Some i -> i
    | None -> raise (Compile_error (Printf.sprintf "unknown net %s" net))
  in
  {
    source_name = netlist.Netlist.name;
    source_hash = Netlist.hash netlist;
    net_index;
    n_nets = !next;
    program;
    input_slots =
      List.map (fun n -> (n, lookup n)) netlist.Netlist.primary_inputs;
    output_slots =
      List.map (fun n -> (n, lookup n)) netlist.Netlist.primary_outputs;
    flop_slots =
      List.map
        (fun (f : Netlist.flop) ->
          (lookup f.Netlist.d, lookup f.Netlist.q, f.Netlist.init))
        netlist.Netlist.flops;
  }

let instruction_count t = Array.length t.program

(* Evaluate one vector under a flop state; returns outputs and the next
   state. *)
let cycle t state vector =
  let values = Array.make t.n_nets Logic.VX in
  List.iter
    (fun (net, slot) ->
      let v = try List.assoc net vector with Not_found -> Logic.VX in
      values.(slot) <- v)
    t.input_slots;
  List.iter2
    (fun (_, q, _) v -> values.(q) <- v)
    t.flop_slots state;
  Array.iter
    (fun i ->
      let ins = Array.to_list (Array.map (fun a -> values.(a)) i.args) in
      values.(i.dst) <- Logic.eval i.op ins)
    t.program;
  let outs = List.map (fun (net, slot) -> (net, values.(slot))) t.output_slots in
  let state' = List.map (fun (d, _, _) -> values.(d)) t.flop_slots in
  (outs, state')

let initial_state t = List.map (fun (_, _, init) -> init) t.flop_slots

(* Clocked run: the flop state threads across vectors (one edge per
   vector); purely combinational programs are unaffected. *)
let run t stimuli =
  let rec go state acc = function
    | [] -> List.rev acc
    | vector :: rest ->
      let outs, state' = cycle t state vector in
      go state' (outs :: acc) rest
  in
  go (initial_state t) [] (Stimuli.vectors stimuli)

(* Per-net toggle counts across consecutive vectors: the activity
   profile an optimizer can weigh power by (tools as data, section
   3.3). *)
let run_trace t stimuli =
  let toggles = Array.make t.n_nets 0 in
  let previous = Array.make t.n_nets Logic.VX in
  let values = Array.make t.n_nets Logic.VX in
  let first = ref true in
  let state = ref (initial_state t) in
  List.iter
    (fun vector ->
      Array.fill values 0 t.n_nets Logic.VX;
      List.iter
        (fun (net, slot) ->
          let v = try List.assoc net vector with Not_found -> Logic.VX in
          values.(slot) <- v)
        t.input_slots;
      List.iter2 (fun (_, q, _) v -> values.(q) <- v) t.flop_slots !state;
      Array.iter
        (fun i ->
          let ins = Array.to_list (Array.map (fun a -> values.(a)) i.args) in
          values.(i.dst) <- Logic.eval i.op ins)
        t.program;
      state := List.map (fun (d, _, _) -> values.(d)) t.flop_slots;
      if not !first then
        for slot = 0 to t.n_nets - 1 do
          if values.(slot) <> previous.(slot) then
            toggles.(slot) <- toggles.(slot) + 1
        done;
      first := false;
      Array.blit values 0 previous 0 t.n_nets)
    (Stimuli.vectors stimuli);
  List.map (fun (net, slot) -> (net, toggles.(slot))) t.net_index

(* Rebuild a compiled simulator from persisted parts, revalidating the
   slot structure. *)
let rebuild ?(flop_slots = []) ~source_name ~source_hash ~net_index ~n_nets
    ~program ~input_slots ~output_slots () =
  let check_slot what i =
    if i < 0 || i >= n_nets then
      raise (Compile_error (Printf.sprintf "%s slot %d out of range" what i))
  in
  List.iter (fun (_, i) -> check_slot "net" i) net_index;
  List.iter (fun (_, i) -> check_slot "input" i) input_slots;
  List.iter (fun (_, i) -> check_slot "output" i) output_slots;
  List.iter
    (fun (d, q, _) ->
      check_slot "flop d" d;
      check_slot "flop q" q)
    flop_slots;
  let program =
    Array.of_list
      (List.map
         (fun (op, args, dst) ->
           Array.iter (check_slot "argument") args;
           check_slot "destination" dst;
           if not (Logic.arity_ok op (Array.length args)) then
             raise (Compile_error "bad instruction arity");
           { op; args; dst })
         program)
  in
  { source_name; source_hash; net_index; n_nets; program; input_slots;
    output_slots; flop_slots }

let hash t =
  Digest.to_hex (Digest.string (t.source_hash ^ "|" ^ t.source_name))
