(* Performance analysis: the design object produced by the simulator
   tools -- static timing plus activity-based power from a simulation
   run.  Both run over one integer-indexed netlist ([Netlist.index])
   and one delay per gate: the event simulator's change log gives the
   switching, the power and the output signature, and the same delays
   give the critical path. *)

type t = {
  circuit_name : string;
  model_name : string;
  critical_path_ps : int;
  total_switching : int;       (* transitions observed in simulation *)
  dynamic_power : float;       (* arbitrary energy units per vector *)
  vectors_simulated : int;
  gate_count : int;
  output_signature : string;   (* digest of the output responses *)
}

(* One step of the worst path: (net, arrival, gate that set it). *)
type path_step = {
  ps_net : string;
  ps_arrival_ps : int;
  ps_gate : string option;  (* None at a timing start point *)
}

(* Static timing over the indexed netlist: the longest weighted path
   from any start point (primary input or flop output) to each net
   under the per-gate delays, and per net the gate that set its
   arrival and that gate's worst input (-1 for none), so the worst
   path is traceable. *)
type timing = {
  arrival : int array;
  via_gate : int array;
  via_input : int array;
}

let timing (ix : Netlist.indexed) delays =
  let order, _ = Netlist.levelized ix in
  let n = Array.length ix.names in
  let arrival = Array.make n 0 in
  let via_gate = Array.make n (-1) and via_input = Array.make n (-1) in
  Array.iter
    (fun g ->
      (* the first input wins a tie *)
      let worst = ref (-1) in
      Array.iter
        (fun i -> if !worst < 0 || arrival.(!worst) < arrival.(i) then worst := i)
        ix.gate_inputs.(g);
      let o = ix.gate_output.(g) in
      arrival.(o) <- (if !worst < 0 then 0 else arrival.(!worst)) + delays.(g);
      via_gate.(o) <- g;
      via_input.(o) <- !worst)
    order;
  { arrival; via_gate; via_input }

(* End points: primary outputs, then flop inputs. *)
let end_points (ix : Netlist.indexed) =
  match ix.source.flops with
  | [] -> ix.outputs
  | flops ->
    let d (f : Netlist.flop) = Hashtbl.find ix.ids f.d in
    Array.append ix.outputs (Array.of_list (List.map d flops))

let worst_arrival ix t =
  Array.fold_left (fun m o -> max m t.arrival.(o)) 0 (end_points ix)

let static_timing model nl =
  let ix = Netlist.index nl in
  (ix, timing ix (Device_model.gate_delays model ix))

let critical_path ?(model = Device_model.default) nl =
  let ix, t = static_timing model nl in
  worst_arrival ix t

(* The worst register-to-register / input-to-output path, start point
   first. *)
let critical_path_report ?(model = Device_model.default) nl =
  let ix, t = static_timing model nl in
  let ends = end_points ix in
  if ends = [||] then []
  else begin
    let endpoint =
      Array.fold_left (fun m o -> if t.arrival.(o) > t.arrival.(m) then o else m)
        ends.(0) ends
    in
    let rec walk net acc =
      let g = t.via_gate.(net) in
      let step =
        { ps_net = ix.names.(net); ps_arrival_ps = t.arrival.(net);
          ps_gate = (if g < 0 then None else Some ix.gate.(g).Netlist.gname) }
      in
      if g < 0 || t.via_input.(net) < 0 then step :: acc
      else walk t.via_input.(net) (step :: acc)
    in
    walk endpoint []
  end

let pp_path ppf steps =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf s ->
         Fmt.pf ppf "%6d ps  %-12s %s" s.ps_arrival_ps s.ps_net
           (match s.ps_gate with Some g -> "via " ^ g | None -> "(start)")))
    steps

(* Activity-based dynamic power: each gate-driven net's changes
   weighted by its gate's energy under the model (the last gate in
   list order, for a net with several), summed in net-name order. *)
let dynamic_power model (ix : Netlist.indexed) (c : Sim_event.changes) =
  let n = Array.length ix.names in
  let switched = Array.make n 0 in
  for k = 0 to c.count - 1 do
    let i = c.net.(k) in
    if i < n then switched.(i) <- switched.(i) + 1
  done;
  let driver = Array.make n (-1) in
  Array.iteri (fun g o -> driver.(o) <- g) ix.gate_output;
  let nets = ref [] in
  for i = n - 1 downto 0 do
    if switched.(i) > 0 && driver.(i) >= 0 then nets := i :: !nets
  done;
  List.fold_left
    (fun acc i ->
      let e = Device_model.gate_energy model ix.gate.(driver.(i)) in
      acc +. (e *. float_of_int switched.(i)))
    0.0
    (List.sort (fun a b -> String.compare ix.names.(a) ix.names.(b)) !nets)

(* One sample of every primary output per vector, just before the next
   vector starts. *)
let output_signature (ix : Netlist.indexed) (c : Sim_event.changes) stimuli =
  let interval = Stimuli.interval_ps stimuli in
  let vectors = Stimuli.length stimuli in
  let n = Array.length ix.names and outs = ix.outputs in
  let m = Array.length outs in
  let values = Array.make n (Logic.code Logic.VX) in
  let samples = Bytes.create (vectors * m) in
  let k = ref 0 in
  for v = 0 to vectors - 1 do
    let at = ((v + 1) * interval) - 1 in
    while !k < c.count && c.time.(!k) <= at do
      let i = c.net.(!k) in
      if i < n then values.(i) <- c.value.(!k);
      incr k
    done;
    for j = 0 to m - 1 do
      Bytes.set samples ((v * m) + j)
        (Logic.value_name (Logic.of_code values.(outs.(j)))).[0]
    done
  done;
  Digest.to_hex (Digest.bytes samples)

(* The complete simulator tool behaviour: one indexed netlist and one
   set of delays for the event-driven run, then static timing, power
   and the signature over them. *)
let analyze ?(model = Device_model.default) nl stimuli =
  let ix = Netlist.index nl in
  let delays = Device_model.gate_delays model ix in
  let changes =
    Sim_event.simulate ix ~delays ~settle_ps:(Stimuli.interval_ps stimuli) stimuli
  in
  let critical_path_ps = worst_arrival ix (timing ix delays) in
  let vectors = Stimuli.length stimuli in
  {
    circuit_name = nl.Netlist.name;
    model_name = model.Device_model.model_name;
    critical_path_ps;
    total_switching = changes.count;
    dynamic_power =
      (if vectors = 0 then 0.0
       else dynamic_power model ix changes /. float_of_int vectors);
    vectors_simulated = vectors;
    gate_count = Array.length ix.gate;
    output_signature = output_signature ix changes stimuli;
  }

(* Summary signature from a compiled-simulation run (Fig. 2 flow):
   functional outputs only, no waveform. *)
let of_compiled_run compiled responses ~model_name =
  let buf = Buffer.create 128 in
  List.iter
    (fun resp ->
      List.iter
        (fun (_, v) -> Buffer.add_string buf (Logic.value_name v))
        resp)
    responses;
  {
    circuit_name = compiled.Sim_compiled.source_name;
    model_name;
    critical_path_ps = 0;
    total_switching = 0;
    dynamic_power = 0.0;
    vectors_simulated = List.length responses;
    gate_count = Sim_compiled.instruction_count compiled;
    output_signature = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

let hash p =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%d|%d|%f|%d|%s" p.circuit_name p.model_name
          p.critical_path_ps p.total_switching p.dynamic_power
          p.vectors_simulated p.output_signature))

let pp ppf p =
  Fmt.pf ppf
    "performance of %s under %s: critical path %d ps, %.1f energy/vector, %d vectors"
    p.circuit_name p.model_name p.critical_path_ps p.dynamic_power
    p.vectors_simulated
