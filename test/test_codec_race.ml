(* Regression test: the CRC-32 table must be ready before any domain
   encodes.  Built lazily, two domains forcing it at once made one of them
   raise [CamlinternalLazy.Undefined].  This is its own executable so that
   no earlier test has already encoded a frame in this process: four
   domains meet at a barrier, then all encode their first frame at once. *)

let () =
  let domains = 4 in
  let arrived = Atomic.make 0 in
  let encode i () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    let payload = String.make 64 (Char.chr (65 + i)) in
    match Net.Codec.decode_frame (Net.Codec.encode_frame ~kind:1 ~payload) with
    | Net.Codec.Got (f, _) -> String.equal f.Net.Codec.payload payload
    | Net.Codec.Need_more _ | Net.Codec.Corrupt _ -> false
  in
  let ok =
    List.init domains (fun i -> Domain.spawn (encode i))
    |> List.map (fun d ->
           match Domain.join d with
           | ok -> ok
           | exception e ->
               prerr_endline ("encode raised " ^ Printexc.to_string e);
               false)
  in
  if List.for_all Fun.id ok then
    print_endline "codec-race: 4 domains encoded their first frames concurrently"
  else begin
    prerr_endline "codec-race: a concurrent first encode failed";
    exit 1
  end
