(* Standard-cell layout: the physical view of Fig. 7.

   [place] implements the placer tool: levelized row placement with
   per-channel trunk routing.  Connectivity lives only in the geometry
   (pins and wire segments touching), so the extractor genuinely
   recovers the netlist from coordinates, and an edit that moves a cell
   without rerouting genuinely breaks LVS. *)

type pin = {
  pname : string;   (* "in0".."inN" or "out" for gate cells; port for pads *)
  px : int;
  py : int;
}

type cell_kind =
  | Gate_cell of Logic.gate_op * int  (* operator, drive *)
  | Input_pad of string               (* primary input port *)
  | Output_pad of string              (* primary output port *)

type cell = {
  cname : string;
  kind : cell_kind;
  x : int;
  y : int;
  width : int;
  height : int;
  pins : pin list;
}

type segment = {
  x1 : int;
  y1 : int;
  x2 : int;
  y2 : int;
}

type t = {
  layout_name : string;
  cells : cell list;
  wires : segment list;
  die_width : int;
  die_height : int;
}

exception Layout_error of string

let layout_errorf fmt = Format.kasprintf (fun s -> raise (Layout_error s)) fmt

let cell_height = 8
let pad_size = 4

let cell_width ~n_inputs = 4 + (2 * n_inputs)

let segment x1 y1 x2 y2 =
  if x1 <> x2 && y1 <> y2 then layout_errorf "segments must be axis-parallel";
  (* normalize so (x1,y1) <= (x2,y2) *)
  if (x1, y1) <= (x2, y2) then { x1; y1; x2; y2 } else { x1 = x2; y1 = y2; x2 = x1; y2 = y1 }

let segment_length s = abs (s.x2 - s.x1) + abs (s.y2 - s.y1)

(* ------------------------------------------------------------------ *)
(* Placement and routing                                               *)
(* ------------------------------------------------------------------ *)

(* Geometry summary:
   - row 0: input pads; rows 1..depth: gates by logic level;
     row depth+1: output pads.
   - channel c runs between row c and row c+1; a net driven from row r
     is assigned a private horizontal trunk track in channel r.
   - every pin reaches its net's trunk with one vertical segment. *)
let place ?(name_suffix = "_layout") nl =
  if Netlist.is_sequential nl then
    layout_errorf "the placer handles combinational netlists only";
  let ranked = Netlist.levelize nl in
  let depth = List.fold_left (fun m (l, _) -> max m l) 1 ranked in
  (* net -> driving row *)
  let driver_row = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace driver_row n 0) nl.Netlist.primary_inputs;
  List.iter
    (fun (level, (g : Netlist.gate)) -> Hashtbl.replace driver_row g.output level)
    ranked;
  (* group gates by row *)
  let rows = Array.make (depth + 2) [] in
  List.iter
    (fun (level, g) -> rows.(level) <- g :: rows.(level))
    (List.rev ranked);
  (* nets needing a trunk, with their channel (= driving row) *)
  let fanout = Netlist.fanout_table nl in
  let routed_nets =
    List.filter (fun n -> fanout n > 0 || List.mem n nl.Netlist.primary_outputs)
      (Netlist.nets nl)
  in
  let channel_nets = Array.make (depth + 2) [] in
  List.iter
    (fun n ->
      match Hashtbl.find_opt driver_row n with
      | Some r -> channel_nets.(r) <- n :: channel_nets.(r)
      | None -> layout_errorf "undriven net %s" n)
    routed_nets;
  Array.iteri (fun i l -> channel_nets.(i) <- List.rev l) channel_nets;
  (* vertical extents: row bases and channel track tables *)
  let row_base = Array.make (depth + 2) 0 in
  let track_of = Hashtbl.create 64 in
  let y = ref 0 in
  for r = 0 to depth + 1 do
    row_base.(r) <- !y;
    let h = if r = 0 || r = depth + 1 then pad_size else cell_height in
    y := !y + h;
    (* channel above row r *)
    List.iteri
      (fun i n ->
        Hashtbl.replace track_of n (!y + 1 + i))
      channel_nets.(r);
    y := !y + List.length channel_nets.(r) + 2
  done;
  let die_height = !y in
  (* horizontal placement per row *)
  let cells = ref [] in
  let pin_positions = Hashtbl.create 64 in
  (* (net, end) -> coordinates of pins on that net *)
  let note_pin net x y = Hashtbl.add pin_positions net (x, y) in
  let place_pads r ports make_kind pin_y_of =
    let x = ref 2 in
    List.iter
      (fun port ->
        let cx = !x in
        x := !x + pad_size + 2;
        let py = pin_y_of (row_base.(r)) in
        let pin = { pname = "pad"; px = cx + (pad_size / 2); py } in
        note_pin port pin.px pin.py;
        cells :=
          { cname = "pad_" ^ port; kind = make_kind port; x = cx;
            y = row_base.(r); width = pad_size; height = pad_size;
            pins = [ pin ] }
          :: !cells)
      ports
  in
  (* input pads: pin on the top edge, reaching channel 0 above *)
  place_pads 0 nl.Netlist.primary_inputs
    (fun p -> Input_pad p)
    (fun base -> base + pad_size);
  (* gate rows *)
  for r = 1 to depth do
    let x = ref 2 in
    List.iter
      (fun (g : Netlist.gate) ->
        let n_inputs = List.length g.inputs in
        let w = cell_width ~n_inputs in
        let cx = !x in
        x := !x + w + 2;
        let base = row_base.(r) in
        let in_pins =
          List.mapi
            (fun i net ->
              let p =
                { pname = Printf.sprintf "in%d" i; px = cx + 1 + (2 * i);
                  py = base }
              in
              note_pin net p.px p.py;
              p)
            g.inputs
        in
        let out_pin =
          { pname = "out"; px = cx + w - 1; py = base + cell_height }
        in
        note_pin g.output out_pin.px out_pin.py;
        cells :=
          { cname = g.gname; kind = Gate_cell (g.op, g.drive); x = cx;
            y = base; width = w; height = cell_height;
            pins = out_pin :: in_pins }
          :: !cells)
      rows.(r)
  done;
  (* output pads: pin on the bottom edge *)
  place_pads (depth + 1) nl.Netlist.primary_outputs
    (fun p -> Output_pad p)
    (fun base -> base);
  let cells = List.rev !cells in
  let die_width =
    List.fold_left (fun m c -> max m (c.x + c.width + 2)) 8 cells
  in
  (* routing: one trunk per net plus a vertical per pin *)
  let wires = ref [] in
  List.iter
    (fun net ->
      let track =
        match Hashtbl.find_opt track_of net with
        | Some t -> t
        | None -> layout_errorf "no track for net %s" net
      in
      let pins = Hashtbl.find_all pin_positions net in
      (* Trunk split at every connection x, so each vertical shares an
         endpoint (a via) with the trunk pieces it joins. *)
      let xs =
        List.map fst pins |> List.sort_uniq compare
      in
      let rec chain = function
        | x :: (x' :: _ as rest) ->
          wires := segment x track x' track :: !wires;
          chain rest
        | [ _ ] | [] -> ()
      in
      chain xs;
      List.iter
        (fun (px, py) -> wires := segment px py px track :: !wires)
        pins)
    routed_nets;
  {
    layout_name = nl.Netlist.name ^ name_suffix;
    cells;
    wires = List.rev !wires;
    die_width;
    die_height;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let area l = l.die_width * l.die_height
let cell_count l = List.length l.cells
let wirelength l = List.fold_left (fun acc s -> acc + segment_length s) 0 l.wires

(* ------------------------------------------------------------------ *)
(* Edits (the layout-editor tool)                                      *)
(* ------------------------------------------------------------------ *)

type edit =
  | Move_cell of string * int * int   (* cell, dx, dy -- does NOT reroute *)
  | Delete_cell of string
  | Rename_layout of string
  | Add_segment of segment
  | Delete_segment of segment

let find_cell l cname = List.find_opt (fun c -> c.cname = cname) l.cells

let apply_edit l = function
  | Rename_layout layout_name -> { l with layout_name }
  | Move_cell (cname, dx, dy) ->
    if find_cell l cname = None then layout_errorf "no cell %s" cname;
    let move c =
      if c.cname <> cname then c
      else
        { c with x = c.x + dx; y = c.y + dy;
          pins = List.map (fun p -> { p with px = p.px + dx; py = p.py + dy }) c.pins }
    in
    { l with cells = List.map move l.cells }
  | Delete_cell cname ->
    if find_cell l cname = None then layout_errorf "no cell %s" cname;
    { l with cells = List.filter (fun c -> c.cname <> cname) l.cells }
  | Add_segment s -> { l with wires = l.wires @ [ s ] }
  | Delete_segment s ->
    if not (List.mem s l.wires) then layout_errorf "no such segment";
    let rec drop_first = function
      | [] -> []
      | x :: rest -> if x = s then rest else x :: drop_first rest
    in
    { l with wires = drop_first l.wires }

let apply_edits l edits = List.fold_left apply_edit l edits

(* ------------------------------------------------------------------ *)
(* Hash and printing                                                   *)
(* ------------------------------------------------------------------ *)

let hash l =
  let buf = Buffer.create 512 in
  Buffer.add_string buf l.layout_name;
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "|%s@%d,%d:%dx%d" c.cname c.x c.y c.width c.height))
    l.cells;
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "|%d,%d-%d,%d" s.x1 s.y1 s.x2 s.y2))
    l.wires;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp ppf l =
  Fmt.pf ppf "layout %s: %d cells, %d segments, %dx%d (area %d, wirelength %d)"
    l.layout_name (cell_count l) (List.length l.wires) l.die_width l.die_height
    (area l) (wirelength l)
