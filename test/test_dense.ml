(* The store's and the history's dense column ([Dense]) against an array
   model: random runs of push, set (in place and growing with a filler)
   and get, whose lengths cross each trie-level boundary of a 16-wide
   trie with a tail (and of a 32-wide one).  Every version a run keeps
   must still read as it did when it was made, after all later
   updates. *)

open Ddf_store

(* Lengths at and around 0, 1, B - 1, B, B + 1, B^2 and B^2 + 1, and
   where the tail first overflows a full root (B^2 + B, B^3 + B), for B
   16 and 32. *)
let boundaries =
  [ 0; 1; 15; 16; 17; 31; 32; 33; 255; 256; 257; 271; 272; 273; 1023; 1024;
    1025; 1056; 1057; 4095; 4096; 4097; 4111; 4112; 4113 ]

(* Whether [v] reads exactly as [model], through every read. *)
let reads_as v model =
  let n = Array.length model in
  Dense.length v = n
  && Array.for_all Fun.id (Array.mapi (fun i x -> Dense.get v i = x) model)
  && Dense.get_opt v (-1) = None
  && Dense.get_opt v n = None
  && (n = 0 || Dense.get_opt v (n - 1) = Some model.(n - 1))
  && Dense.fold (fun acc x -> x :: acc) [] v = List.rev (Array.to_list model)
  &&
  let seen = ref [] in
  Dense.iteri (fun i x -> seen := (i, x) :: !seen) v;
  List.rev !seen = List.mapi (fun i x -> (i, x)) (Array.to_list model)

let set_model model i x ~fill =
  let n = Array.length model in
  let m = Array.append model (Array.make (max 0 (i + 1 - n)) fill) in
  m.(i) <- x;
  m

(* Grow a vector to [target] by pushes, sets in place and growing sets,
   keeping the version (and a copy of the model) at every boundary
   crossed and at a few random steps; then overwrite random elements of
   the last version.  Returns the kept versions. *)
let run seed target =
  let rng = Random.State.make [| seed |] in
  let v = ref Dense.empty and model = ref [||] and kept = ref [] in
  let keep () = kept := (!v, Array.copy !model) :: !kept in
  keep ();
  let step = ref 0 in
  while Array.length !model < target do
    incr step;
    let n = Array.length !model and x = Random.State.bits rng in
    (match Random.State.int rng 10 with
    | 0 | 1 when n > 0 ->
      let i = Random.State.int rng n in
      v := Dense.set !v i x;
      model := set_model !model i x ~fill:0
    | 2 ->
      let i = min (target - 1) (n + Random.State.int rng 4) in
      v := Dense.set ~fill:(-1) !v i x;
      model := set_model !model i x ~fill:(-1)
    | _ ->
      v := Dense.push !v x;
      model := Array.append !model [| x |]);
    if List.mem (Array.length !model) boundaries || Random.State.int rng 200 = 0
    then keep ()
  done;
  keep ();
  for _ = 1 to 50 do
    let n = Array.length !model in
    if n > 0 then begin
      let i = Random.State.int rng n and x = Random.State.bits rng in
      v := Dense.set !v i x;
      model := set_model !model i x ~fill:0
    end
  done;
  keep ();
  !kept

let tests =
  [
    Util.qcheck ~count:60 "every version reads as its array model"
      QCheck2.Gen.(pair int (oneofl boundaries))
      (fun (seed, target) ->
        List.for_all (fun (v, model) -> reads_as v model) (run seed target));
    Alcotest.test_case "out-of-range writes and reads raise" `Quick (fun () ->
        let v = Dense.push (Dense.push Dense.empty 'a') 'b' in
        let raises f =
          match f () with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "get past the end" true
          (raises (fun () -> Dense.get v 2));
        Alcotest.(check bool) "get below 0" true
          (raises (fun () -> Dense.get v (-1)));
        Alcotest.(check bool) "set below 0" true
          (raises (fun () -> Dense.set v (-1) 'c'));
        Alcotest.(check bool) "grow with no filler" true
          (raises (fun () -> Dense.set v 3 'c'));
        Alcotest.(check bool) "set at the end pushes" true
          (Dense.length (Dense.set v 2 'c') = 3));
  ]

let suite = [ ("store.dense", tests) ]
