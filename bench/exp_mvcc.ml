(* Experiment M: MVCC read scaling across domains.

   An in-process daemon on a scratch database; a writer client keeps
   group commits running (each one republishes the snapshot view)
   while N reader threads hammer Browse over the socket.  The
   same workload runs with the domain-pool read executor at 0 (inline
   baseline), 1, 2 and 4 worker domains; sustained reads/sec per
   configuration and the 1->4 scaling factor are exported as gauges.
   On a multi-core host the pinned-snapshot read path scales with the
   pool size because it takes no lock; on a single core the numbers
   flatline — the scaling gauge then reports the hardware, not the
   design. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-mvcc-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed ctx = ignore (Workspace.of_session (Session.of_context ctx))

let n_readers = 8
let store_instances = 200
let measure_s = 1.0

(* A filter that makes the server scan every instance's metadata but
   ship an empty row list back, so the cost under test is the server's
   snapshot read, not the client's decode. *)
let scan_filter =
  { Store.f_entities = Some [ E.stimuli ]; f_user = None; f_from = None;
    f_to = None; f_keywords = []; f_text = Some "no-such-label" }

let populate socket =
  Client.with_client ~user:"seed" ~socket @@ fun c ->
  let first = ref 0 in
  for i = 1 to store_instances do
    let iid =
      Client.install c ~entity:E.stimuli
        ~label:(Printf.sprintf "stim%d" i)
        (Codec.value_to_sexp
           (Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b" ])))
    in
    if i = 1 then first := iid
  done;
  !first

(* Sustained pure-read throughput while a writer client keeps
   committing, at one pool size.  Returns reads/sec. *)
let measure ~read_domains =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ~seed ~read_domains ~sync_mode:Ddf.Journal.Never ~db:dir
      ~socket Standard_schemas.odyssey
  in
  let victim = populate socket in
  let stop = Atomic.make false in
  let writes = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        Client.with_client ~user:"writer" ~socket (fun c ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              Client.annotate c victim
                ~comment:(Printf.sprintf "tick %d" !i);
              incr writes
            done))
      ()
  in
  let counts = Array.make n_readers 0 in
  let readers =
    List.init n_readers (fun i ->
        Thread.create
          (fun () ->
            Client.with_client ~user:(Printf.sprintf "r%d" i) ~socket
              (fun c ->
                while not (Atomic.get stop) do
                  ignore
                    (Client.browse c scan_filter
                      : Ddf_wire.Wire.instance_row list);
                  counts.(i) <- counts.(i) + 1
                done))
          ())
  in
  let t0 = Unix.gettimeofday () in
  Thread.delay measure_s;
  Atomic.set stop true;
  List.iter Thread.join readers;
  Thread.join writer;
  let wall = Unix.gettimeofday () -. t0 in
  Server.stop t;
  Server.wait t;
  rm_rf dir;
  let total = Array.fold_left ( + ) 0 counts in
  let rps = float_of_int total /. wall in
  Printf.printf
    "  read-domains=%d: %d reads in %.2f s = %.0f reads/s (%d writes behind)\n%!"
    read_domains total wall rps !writes;
  rps

let run () =
  Bench_util.section
    (Printf.sprintf
       "MVCC read scaling: %d reader clients, scan of %d instances, writer \
        active"
       n_readers store_instances);
  let configs = [ 0; 1; 2; 4 ] in
  let rates = List.map (fun d -> (d, measure ~read_domains:d)) configs in
  List.iter
    (fun (d, rps) ->
      Metrics.set (Metrics.gauge (Printf.sprintf "mvcc.read_rps.d%d" d)) rps)
    rates;
  let rate d = List.assoc d rates in
  let scaling = rate 4 /. Float.max 1.0 (rate 1) in
  Metrics.set (Metrics.gauge "mvcc.read_scaling_1to4") scaling;
  Printf.printf "  scaling 1 -> 4 domains: %.2fx\n" scaling
