type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  median : float;
  p90 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ ->
      let total = List.fold_left ( + ) 0 xs in
      float_of_int total /. float_of_int (List.length xs)

(* Nearest rank: the ceil(p*n)-th smallest sample, the smallest at p = 0. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let sorted = Array.of_list xs in
      Array.sort Int.compare sorted;
      let n = Array.length sorted in
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((float_of_int x -. m) ** 2.0)) 0.0 xs
        /. float_of_int n
      in
      {
        count = n;
        min = sorted.(0);
        max = sorted.(n - 1);
        mean = m;
        stddev = sqrt var;
        median = float_of_int (percentile sorted 0.5);
        p90 = float_of_int (percentile sorted 0.9);
      }

let argmax f = function
  | [] -> invalid_arg "Stats.argmax: empty"
  | x :: xs ->
      List.fold_left
        (fun (best, best_v) y ->
          let v = f y in
          if v > best_v then (y, v) else (best, best_v))
        (x, f x) xs

let argmin f xs =
  let x, v = argmax (fun x -> -f x) xs in
  (x, -v)

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x range";
  let b = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. fn in
  (a, b)
