module F = Foo

let () = print_int (Foo.called + F.aliased)
let () = Foo.(print_int opened)
