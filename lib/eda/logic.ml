(* Three-valued logic and gate operators for the netlist substrate. *)

type value =
  | V0
  | V1
  | VX  (* unknown / uninitialized *)

type gate_op =
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor

let all_ops = [ Buf; Not; And; Or; Nand; Nor; Xor; Xnor ]

let op_name = function
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"

let op_of_name = function
  | "buf" -> Some Buf
  | "not" -> Some Not
  | "and" -> Some And
  | "or" -> Some Or
  | "nand" -> Some Nand
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | _ -> None

let arity_ok op n =
  match op with
  | Buf | Not -> n = 1
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 2

let value_name = function V0 -> "0" | V1 -> "1" | VX -> "x"

let v_not = function V0 -> V1 | V1 -> V0 | VX -> VX

let v_and a b =
  match (a, b) with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | VX, (V1 | VX) | V1, VX -> VX

let v_or a b =
  match (a, b) with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | VX, (V0 | VX) | V0, VX -> VX

let v_xor a b =
  match (a, b) with
  | VX, _ | _, VX -> VX
  | V0, V0 | V1, V1 -> V0
  | V0, V1 | V1, V0 -> V1

let eval op inputs =
  match (op, inputs) with
  | (Buf | Not), [ a ] -> if op = Buf then a else v_not a
  | (Buf | Not), _ -> invalid_arg "Logic.eval: unary operator arity"
  | _, ([] | [ _ ]) -> invalid_arg "Logic.eval: n-ary operator arity"
  | And, x :: rest -> List.fold_left v_and x rest
  | Or, x :: rest -> List.fold_left v_or x rest
  | Nand, x :: rest -> v_not (List.fold_left v_and x rest)
  | Nor, x :: rest -> v_not (List.fold_left v_or x rest)
  | Xor, x :: rest -> List.fold_left v_xor x rest
  | Xnor, x :: rest -> v_not (List.fold_left v_xor x rest)

(* Values as small ints (V0 0, V1 1, VX 2), for the simulators that
   keep net values in int arrays. *)
let code = function V0 -> 0 | V1 -> 1 | VX -> 2
let of_code = function 0 -> V0 | 1 -> V1 | _ -> VX

let c_not a = if a = 2 then 2 else 1 - a
let c_and a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2
let c_or a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else 2
let c_xor a b = if a = 2 || b = 2 then 2 else a lxor b

let rec fold f values inputs i acc =
  if i = Array.length inputs then acc
  else fold f values inputs (i + 1) (f acc values.(inputs.(i)))

let unary n = if n <> 1 then invalid_arg "Logic.eval: unary operator arity"
let nary n = if n < 2 then invalid_arg "Logic.eval: n-ary operator arity"

(* [eval] over codes, the operands read as [values.(inputs.(i))]; the
   same arity errors. *)
let eval_code op inputs values =
  let n = Array.length inputs in
  match op with
  | Buf -> unary n; values.(inputs.(0))
  | Not -> unary n; c_not values.(inputs.(0))
  | And -> nary n; fold c_and values inputs 1 values.(inputs.(0))
  | Or -> nary n; fold c_or values inputs 1 values.(inputs.(0))
  | Nand -> nary n; c_not (fold c_and values inputs 1 values.(inputs.(0)))
  | Nor -> nary n; c_not (fold c_or values inputs 1 values.(inputs.(0)))
  | Xor -> nary n; fold c_xor values inputs 1 values.(inputs.(0))
  | Xnor -> nary n; c_not (fold c_xor values inputs 1 values.(inputs.(0)))

let of_bool = function true -> V1 | false -> V0

let to_bool = function V0 -> Some false | V1 -> Some true | VX -> None

(* Intrinsic gate delays in picoseconds; fanout loading is added by the
   timing model. *)
let intrinsic_delay_ps = function
  | Buf -> 8
  | Not -> 10
  | Nand -> 12
  | Nor -> 14
  | And -> 16
  | Or -> 16
  | Xor -> 20
  | Xnor -> 22

(* Relative switching energy, for the power estimate. *)
let energy_weight = function
  | Buf -> 1.0
  | Not -> 1.0
  | Nand -> 1.4
  | Nor -> 1.5
  | And -> 1.8
  | Or -> 1.8
  | Xor -> 2.4
  | Xnor -> 2.5

(* CMOS transistor count of the reference cell implementation. *)
let transistor_count op n_inputs =
  match op with
  | Buf -> 4
  | Not -> 2
  | Nand | Nor -> 2 * n_inputs
  | And | Or -> (2 * n_inputs) + 2
  | Xor | Xnor -> 10 + (6 * (n_inputs - 2))
