@ThreadSafe class NewPrimitiveTypeArguments {
  public void f() {
    Object a = new int<String>[3];
  }
}
