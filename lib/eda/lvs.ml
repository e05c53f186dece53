(* LVS-style netlist comparison: the verifier tool.

   Structural equivalence up to net and gate renaming, with primary
   ports pinned by name.  The matcher runs iterative signature
   refinement (a Weisfeiler-Lehman colouring over the gate/net
   bipartite graph), then checks the induced correspondence edge by
   edge.  Mismatches are reported, not just detected, since the
   verification design object is browsable history. *)

type mismatch =
  | Port_sets_differ of string
  | Gate_count of int * int
  | Unmatched_gate of string        (* gate of the reference *)
  | Signature_conflict of string    (* ambiguous or inconsistent region *)

type t = {
  reference_name : string;
  candidate_name : string;
  equivalent : bool;
  matched_gates : int;
  mismatches : mismatch list;
  gate_map : (string * string) list;  (* reference gate -> candidate gate *)
}

let mismatch_to_string = function
  | Port_sets_differ s -> "port sets differ: " ^ s
  | Gate_count (a, b) -> Printf.sprintf "gate counts differ: %d vs %d" a b
  | Unmatched_gate g -> "unmatched gate: " ^ g
  | Signature_conflict s -> "signature conflict: " ^ s

(* Stable signatures: iterate net/gate colour refinement rounds. *)
let signatures nl ~rounds =
  let gate_sig = Hashtbl.create 64 in
  let net_sig = Hashtbl.create 64 in
  let init_net n =
    if List.mem n nl.Netlist.primary_inputs then "PI:" ^ n
    else if List.mem n nl.Netlist.primary_outputs then "PO:" ^ n
    else "net"
  in
  List.iter (fun n -> Hashtbl.replace net_sig n (init_net n)) (Netlist.nets nl);
  (* primary outputs may also be internal nets; PO label dominates *)
  List.iter
    (fun (g : Netlist.gate) ->
      Hashtbl.replace gate_sig g.Netlist.gname
        (Printf.sprintf "%s/%d/%d" (Logic.op_name g.Netlist.op)
           (List.length g.Netlist.inputs) g.Netlist.drive))
    nl.Netlist.gates;
  let digest s = Digest.to_hex (Digest.string s) in
  for _round = 1 to rounds do
    (* refresh gate signatures from net signatures *)
    let new_gate = Hashtbl.create 64 in
    List.iter
      (fun (g : Netlist.gate) ->
        let ins =
          List.map (fun n -> Hashtbl.find net_sig n) g.Netlist.inputs
          (* input order is irrelevant for symmetric operators *)
          |> List.sort compare
        in
        let s =
          Hashtbl.find gate_sig g.Netlist.gname
          ^ "(" ^ String.concat "," ins ^ ")->"
          ^ Hashtbl.find net_sig g.Netlist.output
        in
        Hashtbl.replace new_gate g.Netlist.gname (digest s))
      nl.Netlist.gates;
    (* refresh net signatures from adjacent gate signatures *)
    let new_net = Hashtbl.create 64 in
    let feeders = Hashtbl.create 64 and driver = Hashtbl.create 64 in
    List.iter
      (fun (g : Netlist.gate) ->
        Hashtbl.replace driver g.Netlist.output
          (Hashtbl.find new_gate g.Netlist.gname);
        List.iter
          (fun n ->
            let cur = try Hashtbl.find feeders n with Not_found -> [] in
            Hashtbl.replace feeders n
              (Hashtbl.find new_gate g.Netlist.gname :: cur))
          g.Netlist.inputs)
      nl.Netlist.gates;
    List.iter
      (fun n ->
        let d = try Hashtbl.find driver n with Not_found -> "src" in
        let f =
          (try Hashtbl.find feeders n with Not_found -> []) |> List.sort compare
        in
        let s =
          Hashtbl.find net_sig n ^ "|" ^ d ^ "|" ^ String.concat "," f
        in
        Hashtbl.replace new_net n (digest s))
      (Netlist.nets nl);
    Hashtbl.reset gate_sig;
    Hashtbl.iter (Hashtbl.replace gate_sig) new_gate;
    Hashtbl.reset net_sig;
    Hashtbl.iter (Hashtbl.replace net_sig) new_net
  done;
  (gate_sig, net_sig)

let compare_netlists reference candidate =
  let mismatches = ref [] in
  let fail m = mismatches := m :: !mismatches in
  let ports nl =
    (List.sort compare nl.Netlist.primary_inputs,
     List.sort compare nl.Netlist.primary_outputs)
  in
  let ri, ro = ports reference and ci, co = ports candidate in
  if ri <> ci then
    fail
      (Port_sets_differ
         (Printf.sprintf "inputs {%s} vs {%s}" (String.concat "," ri)
            (String.concat "," ci)));
  if ro <> co then
    fail
      (Port_sets_differ
         (Printf.sprintf "outputs {%s} vs {%s}" (String.concat "," ro)
            (String.concat "," co)));
  let nr = Netlist.gate_count reference and nc = Netlist.gate_count candidate in
  if nr <> nc then fail (Gate_count (nr, nc));
  let gate_map = ref [] and matched = ref 0 in
  if !mismatches = [] then begin
    let ix = Netlist.index reference in
    let order, level = Netlist.levelized ix in
    let rounds = 2 + Array.fold_left max 0 level in
    let ref_sigs, _ = signatures reference ~rounds in
    let cand_sigs, _ = signatures candidate ~rounds in
    (* bucket candidate gates by signature *)
    let buckets = Hashtbl.create 64 in
    Hashtbl.iter
      (fun gname s ->
        let cur = try Hashtbl.find buckets s with Not_found -> [] in
        Hashtbl.replace buckets s (gname :: cur))
      cand_sigs;
    let try_match (g : Netlist.gate) =
      let s = Hashtbl.find ref_sigs g.Netlist.gname in
      match Hashtbl.find_opt buckets s with
      | Some (c :: rest) ->
        Hashtbl.replace buckets s rest;
        gate_map := (g.Netlist.gname, c) :: !gate_map;
        incr matched
      | Some [] | None -> fail (Unmatched_gate g.Netlist.gname)
    in
    List.iter try_match reference.Netlist.gates;
    (* the correspondence must also be consistent on nets: verify by
       checking that matched gates drive matched nets *)
    if !mismatches = [] then begin
      let cand_gate g =
        List.find (fun (x : Netlist.gate) -> x.Netlist.gname = g)
          candidate.Netlist.gates
      in
      let net_map = Hashtbl.create 64 in
      (* ports are pinned by name on both sides *)
      List.iter
        (fun p -> Hashtbl.replace net_map p p)
        (reference.Netlist.primary_inputs @ reference.Netlist.primary_outputs);
      let bind_net rn cn =
        match Hashtbl.find_opt net_map rn with
        | None -> Hashtbl.replace net_map rn cn
        | Some cn' ->
          if cn <> cn' then
            fail
              (Signature_conflict
                 (Printf.sprintf "net %s maps to both %s and %s" rn cn cn'))
      in
      (* walk the reference in topological order so a gate's inputs are
         already bound (driver processed, or a pinned port) when its
         instance correspondence is checked *)
      let gate_map_tbl = Hashtbl.create 64 in
      List.iter (fun (rg, cg) -> Hashtbl.replace gate_map_tbl rg cg) !gate_map;
      Array.iter
        (fun g ->
          let r = ix.Netlist.gate.(g) in
          let rg = r.Netlist.gname in
          let cg = Hashtbl.find gate_map_tbl rg in
          let c = cand_gate cg in
          bind_net r.Netlist.output c.Netlist.output;
          (* symmetric inputs: compare as multisets via sorted pairing
             of already-known bindings where possible *)
          if List.length r.Netlist.inputs = List.length c.Netlist.inputs then begin
            let unbound_r = ref [] and available_c = ref c.Netlist.inputs in
            List.iter
              (fun rn ->
                match Hashtbl.find_opt net_map rn with
                | Some cn when List.mem cn !available_c ->
                  available_c :=
                    (let rec drop = function
                       | [] -> []
                       | x :: rest -> if x = cn then rest else x :: drop rest
                     in
                     drop !available_c)
                | Some cn ->
                  fail
                    (Signature_conflict
                       (Printf.sprintf "gate %s input %s expected %s" rg rn cn))
                | None -> unbound_r := rn :: !unbound_r)
              r.Netlist.inputs;
            (* remaining inputs pair up arbitrarily inside the symmetric
               group; bind them in sorted order *)
            let rs = List.sort compare !unbound_r in
            let cs = List.sort compare !available_c in
            List.iter2 bind_net rs cs
          end
          else fail (Signature_conflict (Printf.sprintf "gate %s arity" rg)))
        order;
      (* ports must map to themselves *)
      List.iter
        (fun p ->
          match Hashtbl.find_opt net_map p with
          | Some c when c <> p ->
            fail (Signature_conflict (Printf.sprintf "port %s maps to %s" p c))
          | Some _ | None -> ())
        (reference.Netlist.primary_inputs @ reference.Netlist.primary_outputs)
    end
  end;
  {
    reference_name = reference.Netlist.name;
    candidate_name = candidate.Netlist.name;
    equivalent = !mismatches = [];
    matched_gates = !matched;
    mismatches = List.rev !mismatches;
    gate_map = List.rev !gate_map;
  }

let hash v =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%b|%d|%s" v.reference_name v.candidate_name
          v.equivalent v.matched_gates
          (String.concat ";" (List.map mismatch_to_string v.mismatches))))

let pp ppf v =
  if v.equivalent then
    Fmt.pf ppf "LVS %s vs %s: EQUIVALENT (%d gates matched)" v.reference_name
      v.candidate_name v.matched_gates
  else
    Fmt.pf ppf "LVS %s vs %s: MISMATCH@,%a" v.reference_name v.candidate_name
      (Fmt.list ~sep:Fmt.cut Fmt.string)
      (List.map mismatch_to_string v.mismatches)
