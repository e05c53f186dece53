(* The design-data payload codec: one printer that writes a value
   straight into a buffer as flat s-expression text, and one reader
   that builds the value as its cursor scans that text.  No tree is
   built on either side; a tree input is printed flat and read by the
   same reader.

   Round-trip fidelity matters: gate and cell names survive (edit
   scripts reference them), floats are written exactly, and content
   hashes are recomputed on load and must agree. *)

open Ddf_eda
module S = Sexp

exception Codec_error of string

let codec_errorf fmt = Format.kasprintf (fun s -> raise (Codec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* A list's first item follows its paren, every other one a space:
   the element writers ([gate], [pin], ...) write just themselves, and
   the list writers put the spaces between. *)
let sp b = Buffer.add_char b ' '
let close b = Buffer.add_char b ')'
let add_int b n = Buffer.add_string b (string_of_int n)
let add_float b f = Buffer.add_string b (Printf.sprintf "%h" f)

(* an item after another *)
let atom b s =
  sp b;
  S.add_atom b s

let int b n =
  sp b;
  add_int b n

let float b f =
  sp b;
  add_float b f

let open_ b head =
  Buffer.add_char b '(';
  S.add_atom b head

(* [(x ...)], no head *)
let items b f l =
  Buffer.add_char b '(';
  (match l with
  | [] -> ()
  | x :: rest ->
    f b x;
    List.iter
      (fun x ->
        sp b;
        f b x)
      rest);
  close b

(* [(name x ...)], after another item *)
let field b name f l =
  sp b;
  open_ b name;
  List.iter
    (fun x ->
      sp b;
      f b x)
    l;
  close b

let two f g b (x, y) =
  f b x;
  g b y

(* [(head ...)] as an element *)
let element b head f x =
  open_ b head;
  f b x;
  close b

let gate b (g : Netlist.gate) =
  open_ b g.Netlist.gname;
  atom b (Logic.op_name g.Netlist.op);
  sp b;
  items b S.add_atom g.Netlist.inputs;
  atom b g.Netlist.output;
  int b g.Netlist.drive;
  close b

let flop b (f : Netlist.flop) =
  open_ b f.Netlist.fname;
  atom b f.Netlist.d;
  atom b f.Netlist.q;
  atom b (Logic.value_name f.Netlist.init);
  close b

let netlist b (nl : Netlist.t) =
  open_ b "netlist";
  field b "name" S.add_atom [ nl.Netlist.name ];
  field b "inputs" S.add_atom nl.Netlist.primary_inputs;
  field b "outputs" S.add_atom nl.Netlist.primary_outputs;
  field b "gates" gate nl.Netlist.gates;
  if nl.Netlist.flops <> [] then field b "flops" flop nl.Netlist.flops;
  close b

let pin b (p : Layout.pin) =
  open_ b p.Layout.pname;
  int b p.Layout.px;
  int b p.Layout.py;
  close b

let cell_kind b = function
  | Layout.Gate_cell (op, drive) ->
    element b "gate" (two atom int) (Logic.op_name op, drive)
  | Layout.Input_pad port -> element b "in" atom port
  | Layout.Output_pad port -> element b "out" atom port

let cell b (c : Layout.cell) =
  open_ b c.Layout.cname;
  sp b;
  cell_kind b c.Layout.kind;
  int b c.Layout.x;
  int b c.Layout.y;
  int b c.Layout.width;
  int b c.Layout.height;
  sp b;
  items b pin c.Layout.pins;
  close b

let segment b (s : Layout.segment) =
  Buffer.add_char b '(';
  add_int b s.Layout.x1;
  int b s.Layout.y1;
  int b s.Layout.x2;
  int b s.Layout.y2;
  close b

let layout b (l : Layout.t) =
  open_ b "layout";
  field b "name" S.add_atom [ l.Layout.layout_name ];
  field b "die" add_int [ l.Layout.die_width; l.Layout.die_height ];
  field b "cells" cell l.Layout.cells;
  field b "wires" segment l.Layout.wires;
  close b

let model b (m : Device_model.t) =
  open_ b "device_models";
  atom b m.Device_model.model_name;
  int b m.Device_model.process_nm;
  int b m.Device_model.vdd_mv;
  int b m.Device_model.vth_mv;
  float b m.Device_model.delay_scale;
  float b m.Device_model.power_scale;
  close b

let stimulus b (net, v) =
  open_ b net;
  atom b (Logic.value_name v);
  close b

let stimuli b stim =
  open_ b "stimuli";
  field b "interval" add_int [ Stimuli.interval_ps stim ];
  field b "vectors" (fun b vec -> items b stimulus vec) (Stimuli.vectors stim);
  close b

let performance b (p : Performance.t) =
  open_ b "performance";
  atom b p.Performance.circuit_name;
  atom b p.Performance.model_name;
  int b p.Performance.critical_path_ps;
  int b p.Performance.total_switching;
  float b p.Performance.dynamic_power;
  int b p.Performance.vectors_simulated;
  int b p.Performance.gate_count;
  atom b p.Performance.output_signature;
  close b

let mismatch b = function
  | Lvs.Port_sets_differ s -> element b "ports" atom s
  | Lvs.Gate_count (x, y) -> element b "count" (two int int) (x, y)
  | Lvs.Unmatched_gate g -> element b "unmatched" atom g
  | Lvs.Signature_conflict s -> element b "conflict" atom s

let atom_pair b (x, y) =
  open_ b x;
  atom b y;
  close b

let verification b (v : Lvs.t) =
  open_ b "verification";
  field b "reference" S.add_atom [ v.Lvs.reference_name ];
  field b "candidate" S.add_atom [ v.Lvs.candidate_name ];
  field b "equivalent" S.add_atom [ string_of_bool v.Lvs.equivalent ];
  field b "matched" add_int [ v.Lvs.matched_gates ];
  field b "mismatches" mismatch v.Lvs.mismatches;
  field b "gate_map" atom_pair v.Lvs.gate_map;
  close b

let plot b (p : Plot.t) =
  open_ b "plot";
  field b "title" S.add_atom [ p.Plot.title ];
  field b "rendering" S.add_atom [ p.Plot.rendering ];
  field b "nets" S.add_atom p.Plot.nets_plotted;
  close b

let statistics b (s : Extract.statistics) =
  open_ b "extraction_statistics";
  atom b s.Extract.source_layout;
  int b s.Extract.nets_extracted;
  int b s.Extract.cells_extracted;
  int b s.Extract.total_wirelength;
  float b s.Extract.estimated_cap_ff;
  int b s.Extract.vias;
  int b s.Extract.die_area;
  int b s.Extract.opens;
  close b

let device b (d : Transistor.device) =
  open_ b d.Transistor.dname;
  atom b (match d.Transistor.dtype with Transistor.Nmos -> "n" | Transistor.Pmos -> "p");
  atom b d.Transistor.gate_net;
  atom b d.Transistor.source;
  atom b d.Transistor.drain;
  close b

let stage b (st : Transistor.stage) =
  open_ b st.Transistor.out;
  sp b;
  items b device st.Transistor.devices;
  close b

let transistor b (t : Transistor.t) =
  open_ b "transistor_view";
  field b "name" S.add_atom [ t.Transistor.tname ];
  field b "inputs" S.add_atom t.Transistor.inputs;
  field b "outputs" S.add_atom t.Transistor.outputs;
  field b "stages" stage t.Transistor.stages;
  close b

let edit b = function
  | Edit_script.Rename n -> element b "rename" atom n
  | Edit_script.Add_gate { gname; op; inputs; output; drive } ->
    element b "add"
      (fun b () ->
        atom b gname;
        atom b (Logic.op_name op);
        sp b;
        items b S.add_atom inputs;
        atom b output;
        int b drive)
      ()
  | Edit_script.Remove_gate g -> element b "remove" atom g
  | Edit_script.Set_drive (g, d) -> element b "drive" (two atom int) (g, d)
  | Edit_script.Insert_buffer { net; gname } ->
    element b "buffer" (two atom atom) (net, gname)

let layout_edit b = function
  | Layout.Move_cell (cell, dx, dy) ->
    element b "move"
      (fun b () ->
        atom b cell;
        int b dx;
        int b dy)
      ()
  | Layout.Delete_cell cell -> element b "delete_cell" atom cell
  | Layout.Rename_layout n -> element b "rename" atom n
  | Layout.Add_segment s -> element b "add_wire" (fun b s -> sp b; segment b s) s
  | Layout.Delete_segment s ->
    element b "delete_wire" (fun b s -> sp b; segment b s) s

let model_edit b = function
  | Device_model.Rename n -> element b "rename" atom n
  | Device_model.Set_vdd v -> element b "vdd" int v
  | Device_model.Set_vth v -> element b "vth" int v
  | Device_model.Scale_delay f -> element b "delay" float f
  | Device_model.Scale_power f -> element b "power" float f

let slot_pair b (net, slot) =
  open_ b net;
  int b slot;
  close b

let flop_slot b (d, q, init) =
  Buffer.add_char b '(';
  add_int b d;
  int b q;
  atom b (Logic.value_name init);
  close b

let instr b (i : Sim_compiled.instr) =
  open_ b (Logic.op_name i.Sim_compiled.op);
  sp b;
  items b add_int (Array.to_list i.Sim_compiled.args);
  int b i.Sim_compiled.dst;
  close b

let tool b = function
  | Ddf_data.Builtin key -> element b "builtin" atom key
  | Ddf_data.Scripted_netlist_editor script ->
    element b "netlist_session"
      (fun b () ->
        atom b script.Edit_script.script_name;
        sp b;
        items b edit script.Edit_script.edits)
      ()
  | Ddf_data.Scripted_layout_editor edits ->
    element b "layout_session"
      (fun b edits ->
        sp b;
        items b layout_edit edits)
      edits
  | Ddf_data.Scripted_model_editor edits ->
    element b "model_session"
      (fun b edits ->
        sp b;
        items b model_edit edits)
      edits
  | Ddf_data.Compiled_simulator compiled ->
    (* persist the full program: the source netlist may not itself be a
       store instance (tools can be installed directly) *)
    element b "compiled_simulator"
      (fun b (c : Sim_compiled.t) ->
        field b "source_name" S.add_atom [ c.Sim_compiled.source_name ];
        field b "source_hash" S.add_atom [ c.Sim_compiled.source_hash ];
        field b "nets" add_int [ c.Sim_compiled.n_nets ];
        field b "flops" flop_slot c.Sim_compiled.flop_slots;
        field b "net_index" slot_pair c.Sim_compiled.net_index;
        field b "inputs" slot_pair c.Sim_compiled.input_slots;
        field b "outputs" slot_pair c.Sim_compiled.output_slots;
        field b "program" instr (Array.to_list c.Sim_compiled.program))
      compiled

let value b = function
  | Ddf_data.Blob { blob_kind; text } -> element b "blob" (two atom atom) (blob_kind, text)
  | Ddf_data.Netlist nl -> netlist b nl
  | Ddf_data.Layout l -> layout b l
  | Ddf_data.Device_models m -> model b m
  | Ddf_data.Stimuli s -> stimuli b s
  | Ddf_data.Circuit c ->
    open_ b "circuit";
    sp b;
    model b c.Ddf_data.c_models;
    sp b;
    netlist b c.Ddf_data.c_netlist;
    close b
  | Ddf_data.Performance p -> performance b p
  | Ddf_data.Verification v -> verification b v
  | Ddf_data.Plot p -> plot b p
  | Ddf_data.Extraction_statistics s -> statistics b s
  | Ddf_data.Transistor_view t -> transistor b t
  | Ddf_data.Sim_options o ->
    element b "sim_options" (two int int) (o.Ddf_data.settle_ps, o.Ddf_data.plot_width)
  | Ddf_data.Placement_options o ->
    element b "placement_options" atom o.Ddf_data.layout_suffix
  | Ddf_data.Optimizer_options o ->
    element b "optimizer_options"
      (fun b (o : Ddf_data.optimizer_options) ->
        int b o.Ddf_data.budget;
        float b o.Ddf_data.objective.Optimize.delay_weight;
        float b o.Ddf_data.objective.Optimize.power_weight)
      o
  | Ddf_data.Tool t ->
    element b "tool"
      (fun b t ->
        sp b;
        tool b t)
      t

let value_to_text v =
  let b = Buffer.create 512 in
  value b v;
  Buffer.contents b

let value_to_sexp v = S.Text (value_to_text v)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* Each reader starts where its item starts and ends past it.  [what]
   names the item in the error a shape mismatch raises. *)

let malformed what = codec_errorf "malformed %s" what

let enter c what =
  match S.peek c with S.Open -> S.enter c | S.Close | S.Word | S.End -> malformed what

let leave c what =
  match S.peek c with S.Close -> S.leave c | S.Open | S.Word | S.End -> malformed what

let read_atom c what =
  match S.peek c with S.Word -> S.atom_at c | S.Open | S.Close | S.End -> malformed what

let read_int c what =
  match S.peek c with S.Word -> S.int_at c | S.Open | S.Close | S.End -> malformed what

let read_float c what =
  let s = read_atom c what in
  match float_of_string_opt s with
  | Some f -> f
  | None -> codec_errorf "expected a float, got %S" s

let read_bool c what =
  let s = read_atom c what in
  match bool_of_string_opt s with
  | Some x -> x
  | None -> codec_errorf "expected a bool, got %S" s

(* A word of a small closed set is matched in place, not copied out;
   anything else (quoted, say) is read as an atom and decided by name. *)
let read_word c what words values of_name =
  match S.peek c with
  | S.Word ->
    let i = S.word_index c words in
    if i >= 0 then values.(i) else of_name (S.atom_at c)
  | S.Open | S.Close | S.End -> malformed what

let logic_values = [| Logic.V0; Logic.V1; Logic.VX |]
let logic_names = Array.map Logic.value_name logic_values

let logic_of_name = function
  | "0" -> Logic.V0
  | "1" -> Logic.V1
  | "x" -> Logic.VX
  | s -> codec_errorf "bad logic value %S" s

let read_logic c what = read_word c what logic_names logic_values logic_of_name

let ops = Array.of_list Logic.all_ops
let op_names = Array.map Logic.op_name ops

let op_of_name name =
  match Logic.op_of_name name with
  | Some op -> op
  | None -> codec_errorf "unknown operator %S" name

let read_op c what = read_word c what op_names ops op_of_name

(* The items up to the enclosing list's [)], which is consumed.  A list
   is an item anywhere the cursor stands. *)
let[@tail_mod_cons] rec rest c f =
  match S.peek c with
  | S.Close ->
    S.leave c;
    []
  | S.Open | S.Word | S.End ->
    let x = f c in
    x :: rest c f

(* [(item ...)] *)
let list c what f =
  enter c what;
  rest c f

let atom_item c = read_atom c "atom"
let int_item c = read_int c "integer"

(* Past the items left in the list being read, and its [)]. *)
let rec skip_rest c =
  match S.peek c with
  | S.Close -> S.leave c
  | S.Open | S.Word | S.End ->
    S.skip c;
    skip_rest c

(* The remaining items of a list as named [(name item ...)] forms, in
   any order: [form c name] reads a wanted form's items and its [)] and
   answers true, or answers false (a form not wanted, or a second of
   its name) and the form is skipped, as are items of any other shape.
   The first form of a name is the one read. *)
let rec forms c form =
  match S.peek c with
  | S.Close -> S.leave c
  | S.Word | S.End ->
    S.skip c;
    forms c form
  | S.Open ->
    S.enter c;
    (match S.peek c with
    | S.Word -> if not (form c (S.atom_at c)) then skip_rest c
    | S.Open | S.Close | S.End -> skip_rest c);
    forms c form

(* A named form's slot: filled once, by its first form. *)
let fill slot c f =
  match !slot with
  | Some _ -> false
  | None ->
    slot := Some (f c);
    true

let got slot name =
  match !slot with Some x -> x | None -> codec_errorf "missing field %S" name

(* the one item of a form, then its [)] *)
let one f what c =
  let x = f c what in
  leave c what;
  x

let atoms c = rest c atom_item

let gate c =
  enter c "gate";
  let gname = read_atom c "gate" in
  let op = read_op c "gate" in
  let inputs = list c "gate" atom_item in
  let output = read_atom c "gate" in
  let drive = read_int c "gate" in
  leave c "gate";
  Netlist.gate ~drive gname op inputs output

let flop c =
  enter c "flop";
  let fname = read_atom c "flop" in
  let d = read_atom c "flop" in
  let q = read_atom c "flop" in
  let init = read_logic c "flop" in
  leave c "flop";
  Netlist.flop ~init fname ~d ~q

(* after the [netlist] head *)
let netlist_fields c =
  let name = ref None and inputs = ref None and outputs = ref None in
  let gates = ref None and flops = ref None in
  forms c (fun c -> function
    | "name" -> fill name c (one read_atom "name")
    | "inputs" -> fill inputs c atoms
    | "outputs" -> fill outputs c atoms
    | "gates" -> fill gates c (fun c -> rest c gate)
    | "flops" -> fill flops c (fun c -> rest c flop)
    | _ -> false);
  Netlist.create
    ~flops:(Option.value !flops ~default:[])
    ~name:(got name "name") ~primary_inputs:(got inputs "inputs")
    ~primary_outputs:(got outputs "outputs") (got gates "gates")

let pin c =
  enter c "pin";
  let pname = read_atom c "pin" in
  let px = read_int c "pin" in
  let py = read_int c "pin" in
  leave c "pin";
  { Layout.pname; px; py }

let cell_kind c =
  enter c "cell kind";
  let kind =
    match read_atom c "cell kind" with
    | "gate" ->
      let op = read_op c "cell kind" in
      Layout.Gate_cell (op, read_int c "cell kind")
    | "in" -> Layout.Input_pad (read_atom c "cell kind")
    | "out" -> Layout.Output_pad (read_atom c "cell kind")
    | _ -> malformed "cell kind"
  in
  leave c "cell kind";
  kind

let cell c =
  enter c "cell";
  let cname = read_atom c "cell" in
  let kind = cell_kind c in
  let x = read_int c "cell" in
  let y = read_int c "cell" in
  let width = read_int c "cell" in
  let height = read_int c "cell" in
  let pins = list c "cell" pin in
  leave c "cell";
  { Layout.cname; kind; x; y; width; height; pins }

(* after the segment's [(] *)
let segment_items c =
  let x1 = read_int c "segment" in
  let y1 = read_int c "segment" in
  let x2 = read_int c "segment" in
  let y2 = read_int c "segment" in
  leave c "segment";
  Layout.segment x1 y1 x2 y2

let segment c =
  enter c "segment";
  segment_items c

let layout_fields c =
  let name = ref None and die = ref None and cells = ref None and wires = ref None in
  forms c (fun c -> function
    | "name" -> fill name c (one read_atom "name")
    | "die" ->
      fill die c (fun c ->
          let w = read_int c "die" in
          (w, one read_int "die" c))
    | "cells" -> fill cells c (fun c -> rest c cell)
    | "wires" -> fill wires c (fun c -> rest c segment)
    | _ -> false);
  let die_width, die_height = got die "die" in
  { Layout.layout_name = got name "name"; cells = got cells "cells";
    wires = got wires "wires"; die_width; die_height }

(* after the [device_models] head *)
let model_parts c =
  let what = "device model" in
  let model_name = read_atom c what in
  let process_nm = read_int c what in
  let vdd_mv = read_int c what in
  let vth_mv = read_int c what in
  let delay_scale = read_float c what in
  let power_scale = read_float c what in
  leave c what;
  Device_model.create ~model_name ~process_nm ~vdd_mv ~vth_mv ~delay_scale
    ~power_scale

let stimulus c =
  enter c "stimulus pair";
  let net = read_atom c "stimulus pair" in
  let v = read_logic c "stimulus pair" in
  leave c "stimulus pair";
  (net, v)

let stimuli_fields c =
  let interval = ref None and vectors = ref None in
  forms c (fun c -> function
    | "interval" -> fill interval c (one read_int "interval")
    | "vectors" -> fill vectors c (fun c -> rest c (fun c -> list c "vector" stimulus))
    | _ -> false);
  Stimuli.create ~interval_ps:(got interval "interval") (got vectors "vectors")

let performance_parts c =
  let what = "performance" in
  let circuit_name = read_atom c what in
  let model_name = read_atom c what in
  let critical_path_ps = read_int c what in
  let total_switching = read_int c what in
  let dynamic_power = read_float c what in
  let vectors_simulated = read_int c what in
  let gate_count = read_int c what in
  let output_signature = read_atom c what in
  leave c what;
  { Performance.circuit_name; model_name; critical_path_ps; total_switching;
    dynamic_power; vectors_simulated; gate_count; output_signature }

let mismatch c =
  let what = "mismatch" in
  enter c what;
  let m =
    match read_atom c what with
    | "ports" -> Lvs.Port_sets_differ (read_atom c what)
    | "count" ->
      let a = read_int c what in
      Lvs.Gate_count (a, read_int c what)
    | "unmatched" -> Lvs.Unmatched_gate (read_atom c what)
    | "conflict" -> Lvs.Signature_conflict (read_atom c what)
    | _ -> malformed what
  in
  leave c what;
  m

let atom_pair what c =
  enter c what;
  let a = read_atom c what in
  let b = read_atom c what in
  leave c what;
  (a, b)

let verification_fields c =
  let reference = ref None and candidate = ref None and equivalent = ref None in
  let matched = ref None and mismatches = ref None and gate_map = ref None in
  forms c (fun c -> function
    | "reference" -> fill reference c (one read_atom "reference")
    | "candidate" -> fill candidate c (one read_atom "candidate")
    | "equivalent" -> fill equivalent c (one read_bool "equivalent")
    | "matched" -> fill matched c (one read_int "matched")
    | "mismatches" -> fill mismatches c (fun c -> rest c mismatch)
    | "gate_map" ->
      fill gate_map c (fun c -> rest c (atom_pair "gate map entry"))
    | _ -> false);
  { Lvs.reference_name = got reference "reference";
    candidate_name = got candidate "candidate";
    equivalent = got equivalent "equivalent"; matched_gates = got matched "matched";
    mismatches = got mismatches "mismatches"; gate_map = got gate_map "gate_map" }

let plot_fields c =
  let title = ref None and rendering = ref None and nets = ref None in
  forms c (fun c -> function
    | "title" -> fill title c (one read_atom "title")
    | "rendering" -> fill rendering c (one read_atom "rendering")
    | "nets" -> fill nets c atoms
    | _ -> false);
  { Plot.title = got title "title"; rendering = got rendering "rendering";
    nets_plotted = got nets "nets" }

let statistics_parts c =
  let what = "extraction statistics" in
  let source_layout = read_atom c what in
  let nets_extracted = read_int c what in
  let cells_extracted = read_int c what in
  let total_wirelength = read_int c what in
  let estimated_cap_ff = read_float c what in
  let vias = read_int c what in
  let die_area = read_int c what in
  let opens = read_int c what in
  leave c what;
  { Extract.source_layout; nets_extracted; cells_extracted; total_wirelength;
    estimated_cap_ff; vias; die_area; opens }

let device c =
  let what = "device" in
  enter c what;
  let dname = read_atom c what in
  let dtype =
    match read_atom c what with
    | "n" -> Transistor.Nmos
    | "p" -> Transistor.Pmos
    | s -> codec_errorf "bad device type %S" s
  in
  let gate_net = read_atom c what in
  let source = read_atom c what in
  let drain = read_atom c what in
  leave c what;
  { Transistor.dname; dtype; gate_net; source; drain }

let stage c =
  enter c "stage";
  let out = read_atom c "stage" in
  let devices = list c "stage" device in
  leave c "stage";
  { Transistor.out; devices }

let transistor_fields c =
  let name = ref None and inputs = ref None and outputs = ref None in
  let stages = ref None in
  forms c (fun c -> function
    | "name" -> fill name c (one read_atom "name")
    | "inputs" -> fill inputs c atoms
    | "outputs" -> fill outputs c atoms
    | "stages" -> fill stages c (fun c -> rest c stage)
    | _ -> false);
  { Transistor.tname = got name "name"; inputs = got inputs "inputs";
    outputs = got outputs "outputs"; stages = got stages "stages" }

let edit c =
  let what = "netlist edit" in
  enter c what;
  let e =
    match read_atom c what with
    | "rename" -> Edit_script.Rename (read_atom c what)
    | "add" ->
      let gname = read_atom c what in
      let op = read_op c what in
      let inputs = list c what atom_item in
      let output = read_atom c what in
      let drive = read_int c what in
      Edit_script.Add_gate { gname; op; inputs; output; drive }
    | "remove" -> Edit_script.Remove_gate (read_atom c what)
    | "drive" ->
      let g = read_atom c what in
      Edit_script.Set_drive (g, read_int c what)
    | "buffer" ->
      let net = read_atom c what in
      Edit_script.Insert_buffer { net; gname = read_atom c what }
    | _ -> malformed what
  in
  leave c what;
  e

let layout_edit c =
  let what = "layout edit" in
  enter c what;
  let e =
    match read_atom c what with
    | "move" ->
      let cell = read_atom c what in
      let dx = read_int c what in
      Layout.Move_cell (cell, dx, read_int c what)
    | "delete_cell" -> Layout.Delete_cell (read_atom c what)
    | "rename" -> Layout.Rename_layout (read_atom c what)
    | "add_wire" -> Layout.Add_segment (segment c)
    | "delete_wire" -> Layout.Delete_segment (segment c)
    | _ -> malformed what
  in
  leave c what;
  e

let model_edit c =
  let what = "model edit" in
  enter c what;
  let e =
    match read_atom c what with
    | "rename" -> Device_model.Rename (read_atom c what)
    | "vdd" -> Device_model.Set_vdd (read_int c what)
    | "vth" -> Device_model.Set_vth (read_int c what)
    | "delay" -> Device_model.Scale_delay (read_float c what)
    | "power" -> Device_model.Scale_power (read_float c what)
    | _ -> malformed what
  in
  leave c what;
  e

let slot_pair c =
  enter c "slot pair";
  let net = read_atom c "slot pair" in
  let slot = read_int c "slot pair" in
  leave c "slot pair";
  (net, slot)

let flop_slot c =
  let what = "flop slot" in
  enter c what;
  let d = read_int c what in
  let q = read_int c what in
  let init = read_logic c what in
  leave c what;
  (d, q, init)

let instr c =
  let what = "instruction" in
  enter c what;
  let op = read_op c what in
  let args = Array.of_list (list c what int_item) in
  let dst = read_int c what in
  leave c what;
  (op, args, dst)

let compiled_fields c =
  let source_name = ref None and source_hash = ref None and nets = ref None in
  let flops = ref None and net_index = ref None and inputs = ref None in
  let outputs = ref None and program = ref None in
  forms c (fun c -> function
    | "source_name" -> fill source_name c (one read_atom "source_name")
    | "source_hash" -> fill source_hash c (one read_atom "source_hash")
    | "nets" -> fill nets c (one read_int "nets")
    | "flops" -> fill flops c (fun c -> rest c flop_slot)
    | "net_index" -> fill net_index c (fun c -> rest c slot_pair)
    | "inputs" -> fill inputs c (fun c -> rest c slot_pair)
    | "outputs" -> fill outputs c (fun c -> rest c slot_pair)
    | "program" -> fill program c (fun c -> rest c instr)
    | _ -> false);
  Sim_compiled.rebuild
    ~flop_slots:(Option.value !flops ~default:[])
    ~source_name:(got source_name "source_name")
    ~source_hash:(got source_hash "source_hash")
    ~net_index:(got net_index "net_index") ~n_nets:(got nets "nets")
    ~program:(got program "program") ~input_slots:(got inputs "inputs")
    ~output_slots:(got outputs "outputs") ()

let tool c =
  let what = "tool payload" in
  enter c what;
  match read_atom c what with
  | "builtin" -> Ddf_data.Builtin (one read_atom what c)
  | "netlist_session" ->
    let name = read_atom c what in
    let edits = list c what edit in
    leave c what;
    Ddf_data.Scripted_netlist_editor (Edit_script.create ~name edits)
  | "layout_session" ->
    let edits = list c what layout_edit in
    leave c what;
    Ddf_data.Scripted_layout_editor edits
  | "model_session" ->
    let edits = list c what model_edit in
    leave c what;
    Ddf_data.Scripted_model_editor edits
  | "compiled_simulator" -> Ddf_data.Compiled_simulator (compiled_fields c)
  | _ -> malformed what

(* [(head ...)] whose head must be [head] *)
let headed c head what f =
  enter c what;
  (match S.peek c with
  | S.Word when S.atom_at c = head -> ()
  | S.Word | S.Open | S.Close | S.End -> malformed what);
  f c

let value c =
  enter c "value";
  match S.peek c with
  | S.Open | S.Close | S.End -> malformed "value"
  | S.Word -> (
    match S.atom_at c with
    | "blob" ->
      let blob_kind = read_atom c "blob" in
      let text = read_atom c "blob" in
      leave c "blob";
      Ddf_data.Blob { blob_kind; text }
    | "netlist" -> Ddf_data.Netlist (netlist_fields c)
    | "layout" -> Ddf_data.Layout (layout_fields c)
    | "device_models" -> Ddf_data.Device_models (model_parts c)
    | "stimuli" -> Ddf_data.Stimuli (stimuli_fields c)
    | "circuit" ->
      let c_models = headed c "device_models" "circuit models" model_parts in
      let c_netlist = headed c "netlist" "circuit netlist" netlist_fields in
      leave c "circuit";
      Ddf_data.Circuit { Ddf_data.c_models; c_netlist }
    | "performance" -> Ddf_data.Performance (performance_parts c)
    | "verification" -> Ddf_data.Verification (verification_fields c)
    | "plot" -> Ddf_data.Plot (plot_fields c)
    | "extraction_statistics" -> Ddf_data.Extraction_statistics (statistics_parts c)
    | "transistor_view" -> Ddf_data.Transistor_view (transistor_fields c)
    | "sim_options" ->
      let settle_ps = read_int c "sim options" in
      let plot_width = read_int c "sim options" in
      leave c "sim options";
      Ddf_data.Sim_options { Ddf_data.settle_ps; plot_width }
    | "placement_options" ->
      Ddf_data.Placement_options
        { Ddf_data.layout_suffix = one read_atom "placement options" c }
    | "optimizer_options" ->
      let what = "optimizer options" in
      let budget = read_int c what in
      let delay_weight = read_float c what in
      let power_weight = read_float c what in
      leave c what;
      Ddf_data.Optimizer_options
        { Ddf_data.budget; objective = { Optimize.delay_weight; power_weight } }
    | "tool" ->
      let t = tool c in
      leave c "tool";
      Ddf_data.Tool t
    | k -> codec_errorf "unknown payload kind %S" k)

(* The payload constructors check their own invariants: on text that
   breaks one (hostile or damaged bytes) their refusal is this
   codec's, as is a syntax error. *)
let value_of_text text =
  let c = S.cursor text in
  try
    let v = value c in
    S.finish c;
    v
  with
  | S.Sexp_error m | Netlist.Netlist_error m | Layout.Layout_error m
  | Device_model.Model_error m | Stimuli.Stimuli_error m
  | Edit_script.Edit_error m | Sim_compiled.Compile_error m
  | Transistor.Transistor_error m | Ddf_data.Type_error m ->
    raise (Codec_error m)

let value_of_sexp = function
  | S.Text text -> value_of_text text
  | (S.Atom _ | S.List _) as tree -> value_of_text (S.to_string ~pretty:false tree)
