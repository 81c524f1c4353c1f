type head = At of string * string | Bare of string

let ( let* ) = Result.bind

let parse_float name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s is not a number: %S" name v)

let parse_int name v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s is not an integer: %S" name v)

(* "k1=v1,k2=v2" -> assoc list, last key first *)
let parse_opts s =
  let parts = if s = "" then [] else String.split_on_char ',' s in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      match String.index_opt part '=' with
      | Some i ->
          let k = String.sub part 0 i
          and v = String.sub part (i + 1) (String.length part - i - 1) in
          Ok ((k, v) :: acc)
      | None -> Error (Printf.sprintf "expected key=value, got %S" part))
    (Ok []) parts

let opt_field opts key ~default parse =
  match List.assoc_opt key opts with Some v -> parse key v | None -> Ok default

let req_field opts key parse =
  match List.assoc_opt key opts with
  | Some v -> parse key v
  | None -> Error (Printf.sprintf "missing %s=..." key)

let split_at c s =
  match String.index_opt s c with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let parse_clause clause acc text =
  let head, opts_s = Option.value (split_at ':' text) ~default:(text, "") in
  let* opts = parse_opts opts_s in
  let head = match split_at '@' head with Some (k, a) -> At (k, a) | None -> Bare head in
  clause acc ~text head opts

let parse ~what spec ~init clause =
  String.split_on_char ';' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.fold_left
       (fun acc text -> Result.bind acc (fun acc -> parse_clause clause acc text))
       (Ok init)
  |> Result.map_error (fun m -> what ^ ": " ^ m)
