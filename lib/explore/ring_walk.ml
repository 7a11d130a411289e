let fixed_port ~name ~n port =
  if n < 3 then invalid_arg (name ^ ": need n >= 3");
  let step = Explorer.move port in
  Explorer.make ~name ~bound:(n - 1) ~fresh:(fun () _ -> step)

let clockwise ~n = fixed_port ~name:"ring-clockwise" ~n 0

let counterclockwise ~n = fixed_port ~name:"ring-counterclockwise" ~n 1
