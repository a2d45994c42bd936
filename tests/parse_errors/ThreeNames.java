@ThreadSafe class ThreeNames {
  public void f() {
    x y z;
  }
}
