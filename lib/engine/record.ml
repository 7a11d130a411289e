module Json = Rv_obs.Json

type t = {
  graph : string;
  algorithm : string;
  label_a : int;
  label_b : int;
  start_a : int;
  start_b : int;
  delay_a : int;
  delay_b : int;
  met : bool;
  time : int;
  cost : int;
}

(* JSON writing: a fixed template, the sink's per-record path. *)

let to_json r =
  Printf.sprintf
    {|{"graph":"%s","algorithm":"%s","label_a":%d,"label_b":%d,"start_a":%d,"start_b":%d,"delay_a":%d,"delay_b":%d,"met":%b,"time":%d,"cost":%d}|}
    (Json.escape r.graph) (Json.escape r.algorithm) r.label_a r.label_b r.start_a
    r.start_b r.delay_a r.delay_b r.met r.time r.cost

(* JSON reading: the shared codec, then each field at its exact type — an
   integral float such as [1.0] is not an integer here, and an integer
   literal too large for [int] (parsed as a float) is rejected too. *)

exception Bad of string

let of_json line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok (Json.Obj fields) -> (
      let field k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Bad ("missing field " ^ k))
      in
      let expected k what = raise (Bad (Printf.sprintf "%s: expected %s" k what)) in
      let str k = match field k with Json.Str s -> s | _ -> expected k "a string" in
      let int k = match field k with Json.Int i -> i | _ -> expected k "an integer" in
      let bool k = match field k with Json.Bool b -> b | _ -> expected k "a boolean" in
      try
        Ok
          {
            graph = str "graph";
            algorithm = str "algorithm";
            label_a = int "label_a";
            label_b = int "label_b";
            start_a = int "start_a";
            start_b = int "start_b";
            delay_a = int "delay_a";
            delay_b = int "delay_b";
            met = bool "met";
            time = int "time";
            cost = int "cost";
          }
      with Bad msg -> Error msg)
  | Ok _ -> Error "expected a JSON object"

(* CSV *)

let csv_header =
  "graph,algorithm,label_a,label_b,start_a,start_b,delay_a,delay_b,met,time,cost"

let escape_csv s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let to_csv r =
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%d,%b,%d,%d" (escape_csv r.graph)
    (escape_csv r.algorithm) r.label_a r.label_b r.start_a r.start_b r.delay_a
    r.delay_b r.met r.time r.cost
