class PrimitiveTypeArguments {
  public void f() {
    int<String> x = 0;
  }
}
