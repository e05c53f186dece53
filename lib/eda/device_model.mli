(** Device models: process parameters scaling every gate's timing and
    power.  The device-model editor of Fig. 1 manipulates these. *)

type t = {
  model_name : string;
  process_nm : int;
  vdd_mv : int;
  vth_mv : int;
  delay_scale : float;
  power_scale : float;
}

exception Model_error of string

val create :
  model_name:string -> process_nm:int -> vdd_mv:int -> vth_mv:int ->
  delay_scale:float -> power_scale:float -> t
(** @raise Model_error when the threshold reaches the supply or a scale
    is not positive. *)

val default : t
(** A generic 800 nm-era process. *)

val fast : t
val low_power : t

(** Edits applied by the device-model editor tool. *)
type edit =
  | Rename of string
  | Set_vdd of int
  | Set_vth of int
  | Scale_delay of float
  | Scale_power of float

val apply_edit : t -> edit -> t
val apply_edits : t -> edit list -> t

val gate_delays : t -> Netlist.indexed -> int array
(** Every gate's effective delay, by gate id: intrinsic scaled by
    process and drive, plus its output's fanout loading; at least
    1 ps. *)

val gate_energy : t -> Netlist.gate -> float

val hash : t -> string
val pp : Format.formatter -> t -> unit
