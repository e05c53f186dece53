(* check_exports ROOT ALLOWLIST: fails, listing each one, when a
   [lib/*/*.mli] value is named nowhere outside its own module (see
   export_scan.ml), when the allowlist has an entry without a reason or
   one that no longer matches a finding, when README.md or DESIGN.md
   cites a [Module.name] that no source file names, or when a file under
   [lib/] outside [lib/disk/] calls [Unix.fsync], [Unix.ftruncate] or
   [Unix.truncate] (a file reaches disk only through the [Disk]
   module).  `dune runtest` runs it on the repo; run it by hand as
   [dune exec test/exports/check_exports.exe -- . test/exports/allowlist]. *)

let source_dirs = [ "lib"; "bin"; "test"; "bench"; "perfbench"; "examples" ]
let docs = [ "README.md"; "DESIGN.md" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The .ml and .mli files under [dir], as (path relative to [root],
   contents), in a stable order; dot-directories (dune's [.objs]) are
   skipped. *)
let rec sources root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let rel = dir ^ "/" ^ entry in
         let abs = Filename.concat root rel in
         if entry.[0] = '.' then []
         else if Sys.is_directory abs then sources root rel
         else if
           Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ (rel, read_file abs) ]
         else [])

let () =
  let root, allowlist =
    match Sys.argv with
    | [| _; root; allowlist |] -> (root, allowlist)
    | _ ->
        prerr_endline "usage: check_exports ROOT ALLOWLIST";
        exit 2
  in
  let files = List.concat_map (sources root) source_dirs in
  let problems = ref 0 in
  let report fmt =
    incr problems;
    Printf.printf (fmt ^^ "\n")
  in
  let allow =
    match Export_scan.parse_allowlist (read_file allowlist) with
    | Ok keys -> keys
    | Error lines ->
        List.iter (report "allowlist entry without a reason: %s") lines;
        []
  in
  List.iter
    (fun (f : Export_scan.finding) ->
      match f.verdict with
      | Delete -> report "delete    %s: %s (no file names it)" f.mli f.name
      | Unexport ->
          report "unexport  %s: %s (only its own .ml uses it)" f.mli f.name)
    (Export_scan.scan ~files ~allow);
  let unallowed =
    List.map
      (fun (f : Export_scan.finding) -> f.mli ^ " " ^ f.name)
      (Export_scan.scan ~files ~allow:[])
  in
  List.iter
    (fun key ->
      if not (List.mem key unallowed) then
        report "stale allowlist entry: %s (not declared, or named elsewhere)" key)
    allow;
  let docs = List.map (fun d -> (d, read_file (Filename.concat root d))) docs in
  List.iter
    (fun (doc, r) ->
      report "stale doc ref %s: `%s` (no source file names its last component)"
        doc r)
    (Export_scan.stale_doc_refs ~files ~docs);
  List.iter
    (fun (path, call) ->
      report "durability %s: %s outside lib/disk/ (use Ddf_disk.Disk)" path call)
    (Export_scan.stray_durability_calls ~files);
  if !problems > 0 then begin
    Printf.printf
      "\n\
       %d export-check problem(s).  Delete each \"delete\" value; drop each\n\
       \"unexport\" value's declaration from its .mli.  A value kept on\n\
       purpose goes in test/exports/allowlist as \"<mli> <value> <reason>\".\n\
       A \"durability\" call moves behind lib/disk/disk.mli.\n"
      !problems;
    exit 1
  end
