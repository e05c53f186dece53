(* Device models: process parameters scaling the timing and power of
   every gate.  The device-model editor of Fig. 1 manipulates these. *)

type t = {
  model_name : string;
  process_nm : int;       (* feature size *)
  vdd_mv : int;           (* supply voltage *)
  vth_mv : int;           (* threshold voltage *)
  delay_scale : float;    (* multiplies intrinsic gate delay *)
  power_scale : float;    (* multiplies switching energy *)
}

exception Model_error of string

let check m =
  if m.vth_mv >= m.vdd_mv then
    raise (Model_error "threshold must be below supply");
  if m.delay_scale <= 0.0 || m.power_scale <= 0.0 then
    raise (Model_error "scales must be positive");
  m

let create ~model_name ~process_nm ~vdd_mv ~vth_mv ~delay_scale ~power_scale =
  check { model_name; process_nm; vdd_mv; vth_mv; delay_scale; power_scale }

(* A plausible default: generic 800nm-era process. *)
let default =
  create ~model_name:"generic_800" ~process_nm:800 ~vdd_mv:5000 ~vth_mv:700
    ~delay_scale:1.0 ~power_scale:1.0

let fast =
  create ~model_name:"fast_600" ~process_nm:600 ~vdd_mv:5000 ~vth_mv:650
    ~delay_scale:0.8 ~power_scale:1.15

let low_power =
  create ~model_name:"lp_800" ~process_nm:800 ~vdd_mv:3300 ~vth_mv:800
    ~delay_scale:1.3 ~power_scale:0.6

(* Edits applied by the device-model editor tool. *)
type edit =
  | Rename of string
  | Set_vdd of int
  | Set_vth of int
  | Scale_delay of float
  | Scale_power of float

let apply_edit m = function
  | Rename model_name -> check { m with model_name }
  | Set_vdd vdd_mv -> check { m with vdd_mv }
  | Set_vth vth_mv -> check { m with vth_mv }
  | Scale_delay f -> check { m with delay_scale = m.delay_scale *. f }
  | Scale_power f -> check { m with power_scale = m.power_scale *. f }

let apply_edits m edits = List.fold_left apply_edit m edits

(* Effective gate delay under this model: intrinsic delay scaled by the
   process, divided by drive strength, plus fanout loading. *)
let gate_delay_ps m (g : Netlist.gate) ~fanout =
  let intrinsic = float_of_int (Logic.intrinsic_delay_ps g.op) in
  let drive = float_of_int g.drive in
  let load = 3.0 *. float_of_int fanout in
  let d = (intrinsic /. sqrt drive) +. load in
  let d = d *. m.delay_scale in
  max 1 (int_of_float (Float.round d))

(* Every gate's delay, by gate id, loaded by today's fanout. *)
let gate_delays m (ix : Netlist.indexed) =
  Array.mapi
    (fun g gate -> gate_delay_ps m gate ~fanout:ix.fanout.(ix.gate_output.(g)))
    ix.gate

let gate_energy m (g : Netlist.gate) =
  Logic.energy_weight g.op *. float_of_int g.drive *. m.power_scale

let hash m =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d|%f|%f" m.model_name m.process_nm m.vdd_mv
          m.vth_mv m.delay_scale m.power_scale))

let pp ppf m =
  Fmt.pf ppf "model %s (%dnm, %.1fV, delay x%.2f, power x%.2f)" m.model_name
    m.process_nm
    (float_of_int m.vdd_mv /. 1000.0)
    m.delay_scale m.power_scale
