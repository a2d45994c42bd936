class MissingInit {
  public void f() {
    int x = ;
  }
}
