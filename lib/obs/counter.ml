type t = int Atomic.t

let registry_mutex = Mutex.create ()

(* rv_lint: allow R3 -- every access goes through registry_mutex *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let find name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock registry_mutex;
  c

let add t k = ignore (Atomic.fetch_and_add t k)
let count name k = if Obs.enabled () then add (find name) k
let value t = Atomic.get t

let all () =
  Mutex.lock registry_mutex;
  let xs = Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex
