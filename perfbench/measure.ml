(* Sample statistics and small helpers shared by the workloads. *)

let now () = Unix.gettimeofday ()

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it.  One definition for medians and tails. *)
let quantile xs p =
  match Array.length xs with
  | 0 -> 0.
  | n ->
      let s = Array.copy xs in
      Array.sort Float.compare s;
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      s.(max 0 (min (n - 1) k))

let median xs = quantile xs 0.5

(* Samples strictly above the [p] quantile; a tail is reported only when
   at least ten lie there. *)
let beyond xs p =
  let q = quantile xs p in
  Array.fold_left (fun acc x -> if x > q then acc + 1 else acc) 0 xs

(* Growable float vector. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 1024) () = { a = Array.make capacity 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let set v i x =
    while v.n <= i do
      push v 0.
    done;
    v.a.(i) <- x

  let get v i = v.a.(i)
  let to_array v = Array.sub v.a 0 v.n
end

let ok_frac ~attempted ~failed =
  float_of_int (attempted - failed) /. float_of_int (max 1 attempted)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let ok_or_die what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)
